"""What each shift mechanism actually touches.

Builds one concept, probes its labeling function on a fixed feature grid,
then applies three shifts and reports exactly what changed: a covariate
shift moves root parameters while every mapper byte and every grid label
stays put; a severe shift transposes two class labels and nothing else;
a snapshot restore brings back the original labeling bit for bit.
"""

import argparse

import numpy as np

from causalstream import (
    ConceptSnapshot,
    ShiftAction,
    ShiftSpec,
    TemporalState,
    apply_abrupt,
    apply_recurrent,
    deterministic_label,
    init_concept,
    preset_config,
    serialize_params,
)
from causalstream.presets import example_graph


def grid_labels(concept, pts):
    parents = concept.graph.parents[concept.graph.target]
    return np.array(
        [deterministic_label(concept, dict(zip(parents, row))) for row in pts]
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    cfg = preset_config("dataset1", args.seed)
    concept = init_concept(example_graph(), cfg.concept, rng)
    parents = concept.graph.parents[concept.graph.target]
    pts = np.random.default_rng(99).uniform(-3, 3, size=(4000, len(parents)))
    labels = grid_labels(concept, pts)
    blobs = {n: serialize_params(m) for n, m in concept.mappers.items()}
    print(f"concept seed {args.seed}: {concept.n_classes} classes; "
          f"grid class counts {np.bincount(labels).tolist()}")

    cov = apply_abrupt(
        concept,
        ShiftSpec(
            "covariate", "abrupt", 0,
            actions=(ShiftAction("root-params", 0, {"shift_std": 0.5}),),
        ),
        np.random.default_rng(1),
    )
    same_bytes = all(serialize_params(m) == blobs[n] for n, m in cov.mappers.items())
    same_labels = np.array_equal(grid_labels(cov, pts), labels)
    print(
        f"\ncovariate shift: root 0 mean {concept.root_dists[0].p1:+.3f} -> "
        f"{cov.root_dists[0].p1:+.3f}; mappers byte-identical: {same_bytes}; "
        f"grid labels unchanged: {same_labels}"
    )

    sev = apply_abrupt(
        concept,
        ShiftSpec(
            "severe", "abrupt", 0,
            actions=(ShiftAction("swap-classes", params={"c1": 0, "c2": 1}),),
        ),
        np.random.default_rng(2),
    )
    post = grid_labels(sev, pts)
    moved = int((post != labels).sum())
    expected = labels.copy()
    expected[labels == 0], expected[labels == 1] = 1, 0
    print(
        f"severe shift: classes 0<->1 swapped on {moved} grid points, "
        f"exact transposition: {np.array_equal(post, expected)}"
    )

    snap = ConceptSnapshot(
        concept, TemporalState.initial(concept.root_dists, concept.continuous_nodes)
    )
    drifted = apply_abrupt(
        concept,
        ShiftSpec(
            "distributional", "abrupt", 0,
            actions=(ShiftAction("move-prototypes", concept.graph.target),),
        ),
        np.random.default_rng(3),
    )
    relabeled = int((grid_labels(drifted, pts) != labels).sum())
    restored = np.array_equal(grid_labels(apply_recurrent(drifted, snap.concept), pts), labels)
    print(
        f"recurrent restore: prototype move relabeled {relabeled} points, "
        f"snapshot restore exact: {restored}"
    )


if __name__ == "__main__":
    main()
