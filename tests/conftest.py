"""Shared test helpers and the acceptance-criteria summary hook."""

from dataclasses import replace

from hypothesis import settings

from causalstream.drift import DriftSchedule
from causalstream.presets import preset_config

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
