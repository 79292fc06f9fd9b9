"""Byte-level guard: SHA-256 digests of generated streams, pinned.

Each case pins the stream CSV, the serialized final concept and every
concept snapshot of one run.  A change that keeps the RNG layout must leave
all of them untouched; a change that alters it on purpose updates the table
once and says so in CHANGES.md.

The table was updated once since it was pinned, for the segment engine
(ROADMAP item 2): its row-independent ``predict`` rounds continuous node
values differently in the last bits, so every ``csv`` entry moved except
dataset4's, whose stream has no node where the rounding differs.  No
``concept`` or ``snapshots`` entry moved, and the RNG layout is unchanged.

It moved a second time when fitting took the streaming arithmetic (ROADMAP
item 3): ``calibrate``, the ancestor walks, the linear target function and
the SGD step sum their products in the fixed order of ``predict``, not by
BLAS.  Every ``concept`` and ``snapshots`` entry and every ``csv`` entry but
the coverage config's moved; no ``sidecar`` entry moved, and the RNG layout
is unchanged.

Batched segment draws (ROADMAP item 2, in part) left every entry in place:
a segment draws each run of normal or uniform values in one call, in the
row-by-row order, and the temporal recursion keeps the float operations of
the one-row steps.  The CSV write by ``repr`` and the ``np.loadtxt`` read
moved no entry either.

It moved a third time when each drift mechanism got one endpoint: an
incremental plan's last step puts the endpoint itself, where
``s + 1.0 * (e - s)`` had left some coordinates up to 8.9e-16 off, and an
abrupt event runs the same plan to its end.  Only runs with an incremental
window moved: dataset2's ``snapshots`` (its ``concept2`` and ``concept3`` carry
the endpoint centroids), and the coverage config's ``csv`` and
``snapshots`` (28 of rows 359-399, from the last step of its second
incremental window to the restore at t=400, follow the exact endpoint).  Both
runs' final concepts are rebuilt by later events, so no ``concept`` entry
moved; nor did any abrupt-only case, any ``sidecar`` entry or the RNG
layout.

The ``sidecar`` column was added later, before the JSON codec replaced the
hand-written ``config_to_document``: it pins the config document that
``generate`` writes into the metadata sidecar (``json.dumps`` with
``indent=2, sort_keys=True``, as ``write_sidecar`` does), so a change to
how configs serialize cannot move the regeneration document unnoticed.

The ``wide-refit`` case was pinned before drift re-simulation began to
compute only the ancestors of the nodes it reads.  Until then only
``dataset6[:600]`` re-simulated a wide graph, and it has no refit; this case
refits a continuous node late in topological order and moves the target's
prototypes, so a pruned walk that dropped or reordered a draw would move it.

It moved a fourth time when the run's config became the one owner of the
task: ``ConceptParams`` lost its copy of it, so a concept document's
``params`` no longer holds a ``"task"`` key (a concept's task is read from
its class permutation).  Every ``concept`` and ``snapshots`` entry moved,
and only by that key: re-inserting ``"task"`` as the first key of each
document's ``params`` gives the previous table back.  No ``csv`` or
``sidecar`` entry moved, and the RNG layout is unchanged.

``PYTHONPATH=src python tests/test_digests.py`` prints the current table,
so an update is a paste that can be reviewed line by line; with
``--check`` it prints only the entries that differ from ``DIGESTS``, as
``case kind: pinned -> now``, and exits 1 when any does.
"""

import copy
import hashlib
import json

import numpy as np
import pytest

from conftest import COVERAGE_DOC, preset_prefix
from causalstream.concept import ConceptParams
from causalstream.config import config_to_document, parse_config
from causalstream.drift import DriftSchedule, ShiftAction, ShiftSpec
from causalstream.generator import GeneratorConfig, build_stream
from causalstream.graph import build_dag
from causalstream.presets import preset_config
from causalstream.stream_io import write_stream_csv
from causalstream.temporal import TemporalParams


def _wide_refit() -> GeneratorConfig:
    """d=30, 600 rows, two abrupt events that re-simulate a wide graph.

    Node 17 is a learned-mlp feature, 26th of 31 nodes in topological
    order, and the last parent of the target 22.  The event at t=200 refits
    it; the event at t=400 moves the target's prototypes, then refits node
    17 again.  Each re-simulation walks 25 or 26 nodes and reads 8 or 11 of
    them.
    """
    refit = ShiftAction("refit-new-target-fn", 17)
    move = ShiftAction("move-prototypes", 22)
    return GeneratorConfig(
        dataset_size=600,
        seed=0,
        d=30,
        graph=build_dag(30, 6, 1, 3, np.random.default_rng(3)),
        p_i=0.1,
        p_m=0.1,
        temporal=TemporalParams(alpha=0.05, rho=0.5, sigma=0.4),
        concept=ConceptParams(
            n_classes=3, nodes={17: {"mapper": "learned-mlp"}, 22: {"mapper": "prototype"}}
        ),
        schedule=DriftSchedule((
            ShiftSpec("distributional", "abrupt", 200, 1, (refit,)),
            ShiftSpec("distributional", "abrupt", 400, 1, (move, refit)),
        )),
    )


CASES = {
    "dataset1": lambda: preset_config("dataset1", 0),
    "dataset2": lambda: preset_config("dataset2", 0),
    "dataset3": lambda: preset_config("dataset3", 0),
    "regression1": lambda: preset_config("regression1", 0),
    "dataset4[:1100]": lambda: preset_prefix("dataset4", 1100),
    "dataset5[:1100]": lambda: preset_prefix("dataset5", 1100),
    "dataset6[:600]": lambda: preset_prefix("dataset6", 600),
    "coverage": lambda: parse_config(copy.deepcopy(COVERAGE_DOC)).generator,
    "wide-refit": _wide_refit,
}

DIGESTS = {
    "dataset1": {
        "csv": "6027a32f79d74436e18cbede906f053da6086b5725f9b7ebd903cadc4662cf85",
        "concept": "a8e8ff2231578d5933801a83f744f52851567f6646bc9dec3ff1c92aedfed94b",
        "snapshots": "1f641d9c26be014bc1904f18afa41a1dd40ee9c162d4dfc3c6cebf7966a558ef",
        "sidecar": "e319b7d3d468fbabc33997f3921d7b93b71c3af2e6cf4a633196312b7dbb7ed9",
    },
    "dataset2": {
        "csv": "c3a4b9bd09db156e9a2e1453aaa4aa6af6c775bf833fad0adf56dc830bf8b097",
        "concept": "d57d85719eea7887e229b4829a79e85e68a21a11babf199a81e1b21ca40bbc46",
        "snapshots": "3c708a91a30a41a93ffc125bc5ddebeb638855cb26c25de263647fce543c3b44",
        "sidecar": "c2d86cea358ace9ceaf45e7d765409117ccb9a409b04f86660852d5d46744af1",
    },
    "dataset3": {
        "csv": "108c35f03bebb6c4abca4467f1d856980de5b8feb9e2ed02ba9a0b829ce3fef7",
        "concept": "bd8889f11aad1f6647c13a6ce2f7e687b741955814504716b643f84e89391b92",
        "snapshots": "b4b84a7d439967cb0b99054f9ff8e6bef741ac6020bb15107300e42e1e32e6b9",
        "sidecar": "b698d7f3aff1b8e2d898e1e6966e0a30ee4fff64da5d3d398165702ef8782667",
    },
    "regression1": {
        "csv": "4e8c6d61ab91d4f179091408e431549122b2a94a0e89d2114e501a191e63e1ae",
        "concept": "6a30b1d90e53b2344c22abeab568e59c84315879bc52234f56364035bc33d6a6",
        "snapshots": "9bbc900212334a707cc27df7585b77b17ec02d78f20f0d799133ee3c130ac5c2",
        "sidecar": "18472918eb7c10991863a6448a1ae90a4e8122a3ba2a3316a8c0ef2cab1d7d38",
    },
    "dataset4[:1100]": {
        "csv": "8a9271a97a1f9fbbc9d1a2e38e1f1f25d9258b032a90dcc3134685c8b13e43dd",
        "concept": "cc9cde85d79b6253ac3e23baf53751fd82e40a8de073b1566458521f25349a63",
        "snapshots": "9394a044892549cc3e35ff41ca63f8b6936e131565916481818b988c5a2072bb",
        "sidecar": "eee4d68fb505e7a525a790634383961e512bf608e690a3fcc360e53a2aadb24e",
    },
    "dataset5[:1100]": {
        "csv": "9aceafe4690dc52b83b2a00526eaf354ee002b11d4c6683023760e2d0321e8f5",
        "concept": "ee94c25006a433f8c3ecd168b86b8c25a6955bdc3929680628034f8dda05a703",
        "snapshots": "295887e1dae8f21ff7bbc98832df2c12552179715dec51b179a281ae3dcba089",
        "sidecar": "65250994759aa16db987e641276f3a06946b167670c270a33c8116113a29f8b0",
    },
    "dataset6[:600]": {
        "csv": "ae1854dfe8454bba5681254020f620e7c71a55ba822610cb4b5bea308328817d",
        "concept": "b8f0f0b93e37ddaec8dc94a8918f0588385b7a39c3b644b36835bf5cf3dfd83f",
        "snapshots": "0f842ec13861e4d2fb61a4fd0177dc8bbcd39da1a62e73ade4f9aa9b7c05708e",
        "sidecar": "5f3655ac7dfa4cba66353853afc24b0358fd0ff7650b0ed6bc8334b9cf076c70",
    },
    "coverage": {
        "csv": "5c75c2e4c1b3337b8e52489bf629518d6a658f27e02d6d57b0d242d6276cbb13",
        "concept": "dcd80fe8656ae26fb51fc8f1b2c484b0d1e997c75dc5d5003e13124c3cd2050b",
        "snapshots": "167905db6193c7b02fb7ffd3567063ebd002dc8e9182c14cc32f980499e808b6",
        "sidecar": "b8376ede3a5a48944d5bbe950d26d33238ee0c18a6fb939fb8180f2d22307761",
    },
    "wide-refit": {
        "csv": "694af94eef875d67e9795d712ccd48fdd46ca3407f608fb4b1e5d0b6867cbc2c",
        "concept": "035e87c12c81003886d5bc4192743b62bd30a8c5b89b0c1916b65a5854106ef3",
        "snapshots": "382f7499f73f572e9fc0250cd0b279070aecb1a5db8fd9b6cb7a03a501b9f149",
        "sidecar": "2be7ca1467939fddcdc2de2044df39efb7e58df7b390088839aa12dbb4d33777",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stream_digests(cfg, path) -> dict[str, str]:
    gen = build_stream(cfg)
    write_stream_csv(path, (gen.step() for _ in range(cfg.dataset_size)), gen.feature_names)
    snapshots = "\n".join(f"{sid} {snap.to_json()}" for sid, snap in gen.snapshots.items())
    return {
        "csv": _sha(path.read_bytes()),
        "concept": _sha(json.dumps(gen.concept.to_dict()).encode()),
        "snapshots": _sha(snapshots.encode()),
        "sidecar": _sha(json.dumps(config_to_document(cfg), indent=2, sort_keys=True).encode()),
    }


@pytest.mark.parametrize("case", list(CASES))
def test_stream_digests_are_pinned(case, tmp_path):
    assert stream_digests(CASES[case](), tmp_path / "s.csv") == DIGESTS[case]


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: test_digests.py [--check]")
    with tempfile.TemporaryDirectory() as tmp:
        table = {case: stream_digests(make(), Path(tmp) / "s.csv") for case, make in CASES.items()}
    if sys.argv[1:]:
        moved = [(c, k) for c, row in table.items() for k in row if row[k] != DIGESTS[c][k]]
        for case, kind in moved:
            print(f"{case} {kind}: {DIGESTS[case][kind]} -> {table[case][kind]}")
        sys.exit(1 if moved else 0)
    print("DIGESTS = {")
    for case, row in table.items():
        print(f"    {json.dumps(case)}: {{")
        for kind, digest in row.items():
            print(f'        "{kind}": "{digest}",')
        print("    },")
    print("}")
