"""A row-at-a-time reference engine, for differential tests of the segment
engine (McKeeman, "Differential testing for software", 1998).

It is written from the contract that ``spawn_streams`` and
``StreamGenerator`` document, not from the segment engine.  At each row it
closes the open window if the window ends there, applies the event that
starts there with the same drift functions, gives the row its concept, and
draws the row's forced values from that concept and its masked features.
It then walks the nodes in topological order: a root makes its draws with
``root_value_step``, a continuous inner node its AR innovation with
``ar_noise_step``, and every inner node gets one 1-row ``predict``, the
target's classes relabeled by the concept's permutation; a forced value
replaces a node's value before its children read it.

``predict`` gives a row the same bits however many rows share the call, so
the segment engine must match this engine bit for bit, whatever its
segments, caps and grouping.
"""

import copy
from dataclasses import dataclass

from causalstream.concept import Concept, ConceptSnapshot
from causalstream.drift import (
    apply_abrupt,
    apply_recurrent,
    begin_gradual,
    begin_incremental,
    concept_id,
    draw_interventions,
    draw_missing,
    gradual_selector,
    incremental_step,
)
from causalstream.generator import GeneratorConfig, Instance, StreamGenerator
from causalstream.temporal import TemporalState, ar_noise_step, root_value_step


@dataclass
class ReferenceRun:
    rows: list[Instance]
    # every concept an event completed, in the order they completed, with
    # the temporal state after the row before it
    snapshots: dict[str, ConceptSnapshot]
    # the current concept after the last row: a gradual window's start
    # concept while the window is open
    concept: Concept


def reference_run(cfg: GeneratorConfig, gen: StreamGenerator) -> ReferenceRun:
    """Every row of the run of ``cfg``, built one at a time.

    ``gen`` is a generator of ``cfg`` that has built no row yet; the run
    takes its initial concept, policy and emitted features, and draws from
    copies of its substreams, so ``gen`` itself is left as it was.
    """

    concept, policy, emitted = gen.concept, gen.policy, gen.emitted_features
    rngs = copy.deepcopy(gen.rngs)
    graph = concept.graph
    extra = (graph.target,) if policy.include_target else ()
    eligible = tuple(sorted(graph.feature_nodes + extra))
    start = concept.initial_state()
    ewma, ar = dict(start.ewma), dict(start.ar)

    def snapshot(key: str, c: Concept) -> None:
        snapshots[key] = ConceptSnapshot(c, TemporalState(dict(ewma), dict(ar)))

    current, current_id, snapshots = concept, concept_id(0), {}
    snapshot(current_id, current)
    starts = {spec.t_start: (k, spec) for k, spec in enumerate(cfg.schedule, 1)}
    # the open window: its spec, its concept id, and the endpoint concept
    # of a gradual window or the plan of an incremental one
    window, rows = None, []
    for t in range(cfg.dataset_size):
        if window is not None and t == window[0].t_end:
            if window[0].rate == "gradual":
                current, current_id = window[2], window[1]
            snapshot(current_id, current)
            window = None
        if t in starts:
            k, spec = starts[t]
            if spec.kind == "recurrent":
                current = apply_recurrent(current, snapshots[spec.snapshot_id].concept)
            elif spec.rate == "abrupt":
                current = apply_abrupt(current, spec, rngs.schedule)
            elif spec.rate == "gradual":
                window = (spec, concept_id(k), begin_gradual(current, spec, rngs.schedule))
            else:
                window = (spec, concept_id(k), begin_incremental(current, spec, rngs.schedule))
            if spec.rate == "abrupt":
                current_id = concept_id(k)
                snapshot(current_id, current)
        if window is not None and window[0].rate == "incremental":
            # every row of the window has a step of its own
            spec, current_id, plan = window
            current = incremental_step(current, plan, t - spec.t_start, rngs.schedule)
        row, row_id = current, current_id
        if window is not None and window[0].rate == "gradual":
            if gradual_selector(t, window[0], rngs.schedule):
                row, row_id = window[2], window[1]
        forced = draw_interventions(cfg.p_i, policy, eligible, row, rngs.interventions)
        masked = draw_missing(cfg.p_m, policy, emitted, rngs.missing)
        values = {}
        for node in graph.topo_order:
            if graph.is_root(node):
                ewma[node], ar[node] = root_value_step(
                    ewma[node], ar[node], row.root_dists[node], row.temporal, rngs.values
                )
                value = ewma[node]
            else:
                value = row.mappers[node].predict([values[p] for p in graph.parents[node]])
                if not row.is_categorical(node):
                    ar[node] = ar_noise_step(
                        ar[node], row.temporal, rngs.values, sigma_scale=row.noise_scale(node)
                    )
                    value = float(value) + ar[node]
                elif node == graph.target:
                    value = row.class_permutation[value]
            values[node] = forced.get(node, value)
        features = tuple(None if node in masked else values[node] for node in emitted)
        label = values[graph.target]
        rows.append(Instance(t, features, label, values, tuple(forced), masked, row_id))
    return ReferenceRun(rows, snapshots, current)
