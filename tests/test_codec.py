"""The JSON form of every serialized type: fresh containers, exact round trips."""

import json

import numpy as np
import pytest

from causalstream.concept import ConceptParams, init_concept
from causalstream.drift import DriftSchedule, InterventionPolicy, ShiftAction, ShiftSpec
from causalstream.mappers import (
    CATEGORICAL_KINDS,
    CONTINUOUS_KINDS,
    ParentStats,
    RootDistribution,
    TargetFunction,
)
from causalstream.presets import example_graph
from causalstream.temporal import TemporalParams

TYPES = (
    "RootDistribution", "TargetFunction", "ParentStats", "TemporalParams", "TemporalState",
    "CausalGraph", "ConceptParams", "Concept", "ShiftAction", "ShiftSpec", "DriftSchedule",
    "InterventionPolicy",
)


@pytest.fixture(scope="module")
def objects():
    """One object of every serialized type, and one mapper of every kind."""
    concepts = [
        init_concept(
            example_graph(),
            ConceptParams(n_classes=2, nodes={n: {"mapper": k} for n, k in zip((2, 3, 4, 5), kinds)}),
            np.random.default_rng(3),
        )
        for kinds in (
            ("learned-mlp", "regression-tree", "sgd-linear", "prototype"),
            ("random-mlp", "gaussian-prototype", "random-rbf", "hyperplane"),
        )
    ]
    action = ShiftAction("root-params", node=0, params={"shift_std": 0.5})
    spec = ShiftSpec("covariate", "gradual", 100, duration=50, actions=(action,))
    return {
        "RootDistribution": RootDistribution("uniform", -1.0, 2.0),
        "TargetFunction": TargetFunction("linear", weights=(0.5, -1.0), bias=0.25),
        "ParentStats": ParentStats((0.0, 1.0), (2.0, 3.0), (1.0, 2.0), (0.5, 0.5)),
        "TemporalParams": TemporalParams(alpha=0.2),
        "TemporalState": concepts[0].initial_state(),
        "CausalGraph": example_graph(),
        "ConceptParams": ConceptParams(nodes={0: {"dist": "normal", "dist_params": [0.5, 2.0]}}),
        "Concept": concepts[0],
        "ShiftAction": action,
        "ShiftSpec": spec,
        "DriftSchedule": DriftSchedule((spec,)),
        "InterventionPolicy": InterventionPolicy(
            count_range=(1, 2), values={3: {"dist": "uniform", "params": [-1.0, 1.0]}}
        ),
        **{m.kind: m for c in concepts for m in c.mappers.values()},
    }


def _change_every_container(doc) -> None:
    for value in list(doc.values() if isinstance(doc, dict) else doc):
        if isinstance(value, (dict, list)):
            _change_every_container(value)
    if isinstance(doc, dict):
        doc["changed"] = True
    else:
        doc.append("changed")


@pytest.mark.parametrize("name", TYPES + CONTINUOUS_KINDS + CATEGORICAL_KINDS)
def test_to_dict_shares_nothing_and_round_trips_through_json(objects, name):
    obj = objects[name]
    before = json.loads(json.dumps(obj.to_dict()))
    doc = obj.to_dict()
    assert doc == before
    _change_every_container(doc)
    assert obj.to_dict() == before
    clone = type(obj).from_dict(json.loads(json.dumps(before)))
    assert json.dumps(clone.to_dict()) == json.dumps(before)
