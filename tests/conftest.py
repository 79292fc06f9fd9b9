"""Shared test helpers and the acceptance-criteria summary hook."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from causalstream import analysis
from causalstream.concept import ConceptParams
from causalstream.drift import DriftSchedule, ShiftAction, ShiftSpec
from causalstream.generator import GeneratorConfig
from causalstream.graph import build_dag
from causalstream.presets import preset_config
from causalstream.temporal import TemporalParams

# property tests draw the same examples on every run, so tier-1 stays
# deterministic and its time bounded; ``--hypothesis-profile=deep`` draws
# ten times as many fresh examples per property, for runs outside tier-1
settings.register_profile("ci", derandomize=True, max_examples=20, deadline=None)
settings.register_profile("deep", derandomize=False, max_examples=200, deadline=None)
settings.load_profile("ci")

# the acceptance tests register one line per criterion here; the terminal
# summary hook below reprints them after the run so the pass/fail lines are
# visible even when pytest captures stdout
criterion_lines: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> bool:
    line = f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    criterion_lines[number] = line
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not criterion_lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(criterion_lines):
        terminalreporter.write_line(criterion_lines[number])


@contextmanager
def forced_blas_threads(n: int):
    """Run the block with OpenBLAS set to ``n`` threads, as on a machine
    whose default is ``n``; skips the test where no setter resolves."""
    blas = analysis._blas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count setter resolves")
    get, put = blas
    old = get()
    put(n)
    try:
        yield
    finally:
        put(old)


def preset_prefix(name: str, rows: int, seed: int = 0):
    """The first ``rows`` rows of a preset, with its schedule cut to the
    events that end inside them."""
    cfg = preset_config(name, seed)
    events = tuple(e for e in cfg.schedule if e.t_end <= rows)
    return replace(cfg, dataset_size=rows, schedule=DriftSchedule(events))


# One run configuration that reaches every drift mechanism and both the
# abrupt and the windowed code paths on the six-node example graph: a
# prototype feature node, a random MLP, an sgd-linear node and a hyperplane
# target, with interventions (forced values and the target included),
# missingness and a feature subsample.
COVERAGE_DOC = {
    "seed": 11,
    "dataset_size": 900,
    "task": "classification",
    "d": 5,
    "p_i": 0.2,
    "p_m": 0.1,
    "feature_subsample": 4,
    "temporal": {"alpha": 0.1, "rho": 0.5, "sigma": 0.3},
    "graph": {
        "n_nodes": 6,
        "parents": {"0": [], "1": [], "2": [0, 1], "3": [2], "4": [2], "5": [2, 3, 4]},
        "target": 5,
    },
    "concept": {
        "n_classes": 2,
        "nodes": {
            "0": {"dist": "normal"},
            "1": {"dist": "uniform"},
            "2": {"mapper": "prototype", "n_classes": 3},
            "3": {"mapper": "random-mlp"},
            "4": {"mapper": "sgd-linear", "target_fn": "linear"},
            "5": {"mapper": "hyperplane"},
        },
    },
    "policy": {
        "count_range": [1, 2],
        "include_target": True,
        "values": {"3": {"dist": "uniform", "params": [-1.0, 1.0]}},
    },
    "schedule": {
        "events": [
            {
                "kind": "distributional", "rate": "abrupt", "t_start": 100,
                "actions": [
                    {"mechanism": "change-distance", "node": 2},
                    {"mechanism": "rotate-hyperplane", "node": 5},
                ],
            },
            {
                "kind": "covariate", "rate": "incremental", "t_start": 200, "duration": 50,
                "actions": [
                    {"mechanism": "root-params", "node": 0,
                     "params": {"shift_std": 1.0, "scale_factor": 1.5}},
                ],
            },
            {
                "kind": "distributional", "rate": "incremental", "t_start": 300, "duration": 60,
                "actions": [
                    {"mechanism": "rotate-hyperplane", "node": 5, "params": {"angle_deg": 60}},
                    {"mechanism": "reinit-random-mlp", "node": 3},
                    {"mechanism": "refit-new-target-fn", "node": 4},
                ],
            },
            {"kind": "recurrent", "rate": "abrupt", "t_start": 400, "snapshot_id": "concept1"},
            {
                "kind": "covariate", "rate": "gradual", "t_start": 500, "duration": 100,
                "actions": [{"mechanism": "root-params", "node": 1, "params": {"redraw": True}}],
            },
            {"kind": "severe", "rate": "abrupt", "t_start": 700,
             "actions": [{"mechanism": "swap-classes"}]},
            {
                "kind": "distributional", "rate": "abrupt", "t_start": 800,
                "actions": [
                    {"mechanism": "move-prototypes", "node": 2},
                    {"mechanism": "refit-new-target-fn", "node": 4, "params": {"target_fn": "sine"}},
                ],
            },
        ]
    },
}


def wide_refit() -> GeneratorConfig:
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
