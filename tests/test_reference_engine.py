"""The segment engine against the row-at-a-time reference engine of
``reference_engine``: the same CSV bytes, every row's concept id, values,
intervened and missing fields, every snapshot and the final concept.

Every other byte-level guard compares the engine with itself; this one
also covers the code that every segment cap shares.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given

from reference_engine import reference_run
from test_digests import CASES
from test_properties import configs
from causalstream.drift import DriftSchedule, ShiftAction, ShiftSpec
from causalstream.generator import build_stream
from causalstream.presets import preset_config
from causalstream.stream_io import write_stream_csv


def _incremental_root_shift():
    """dataset6 seed 31 (d = 100), cut to 300 rows, with one
    incremental ``root-params`` event (``shift_std`` 2.0) on its first root
    over rows 10-1010: every row of the window has a concept version of its
    own, which moves one node."""
    cfg = preset_config("dataset6", 31)
    shift = ShiftAction("root-params", cfg.graph.roots[0], {"shift_std": 2.0})
    event = ShiftSpec("covariate", "incremental", 10, 1000, (shift,))
    return replace(cfg, dataset_size=300, schedule=DriftSchedule((event,)))


def _comparable(rows, feature_names, snapshots, concept, path: Path) -> dict:
    write_stream_csv(path, rows, feature_names)
    return {
        "csv": path.read_bytes(),
        "rows": [(r.concept_id, r.values, r.intervened, r.missing) for r in rows],
        "snapshots": [(k, s.to_json()) for k, s in snapshots.items()],
        "concept": concept.to_dict(),
    }


def _assert_same(cfg, gen, tmp: Path) -> None:
    """``gen``, a generator of ``cfg`` that has built no row, against the
    reference run from the same start."""
    ref = reference_run(cfg, gen)
    rows = gen.take(cfg.dataset_size)
    names = gen.feature_names
    engine = _comparable(rows, names, gen.snapshots, gen.concept, tmp / "e.csv")
    reference = _comparable(ref.rows, names, ref.snapshots, ref.concept, tmp / "r.csv")
    for what in reference:
        assert engine[what] == reference[what], what


_CASES = {**CASES, "incremental-root-shift[:300]": _incremental_root_shift}


@pytest.mark.parametrize("case", list(_CASES))
def test_the_engine_matches_the_reference(case, tmp_path):
    cfg = _CASES[case]()
    _assert_same(cfg, build_stream(cfg), tmp_path)


@given(configs())
def test_the_engine_matches_the_reference_on_random_configs(cfg):
    try:
        gen = build_stream(cfg)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        _assert_same(cfg, gen, Path(tmp))
