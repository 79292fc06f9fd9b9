"""Workloads and the generate -> evaluate -> analyze pipeline they run.

A pass runs one stream of a workload through the same public functions the
CLI calls, times each stage, and then checks every output.  Checks run
outside the timed stages; a stage call that raises, and a check that does
not hold, each count as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import causalstream as cs

# the CLI defaults for analyze
LAGS = 20
BATCH = 500
MMD_SEED = 0

STAGES = ("setup", "generate", "evaluate", "analyze")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    rows: int
    learner: str
    # prequential window W, also the warm-up length; the CLI default is 100
    window: int
    # True: move the preset's events onto the shortened stream in
    # proportion; False: keep the events of the prefix
    rescale_events: bool


WORKLOADS = {
    w.name: w
    for w in (
        # d=100, p_i=p_m=0.1, all 19 abrupt events: concept init and the
        # per-row walk over 100 nodes, interventions, missingness and the
        # move-prototypes re-simulation dominate.  Events are 50 rows
        # apart, so W=25 keeps every 2W post-event horizon inside
        Workload("wide-missing", "dataset6", 1000, "logistic", 25, True),
        # d=10 over 10k rows: per-row generator overhead, CSV I/O and a
        # 20-batch MMD heatmap (190 pairs) dominate; concept init is cheap
        Workload("tall-narrow", "dataset7", 10_000, "logistic", 100, False),
        # gradual and incremental windows, regression-tree mappers and only
        # 10 MMD pairs per stream: the case an abrupt-only or MMD-only
        # optimisation must not slow down
        Workload("windowed-drift", "dataset2", 2500, "naive-bayes", 100, False),
    )
}


def preset_seed(workload_seed: int, workload: str, pass_no: int) -> int:
    key = (workload_seed, zlib.crc32(workload.encode()), pass_no)
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def stream_config(w: Workload, seed: int):
    """The workload's preset, shortened to ``w.rows`` with its schedule.

    Only events whose 2W post-event horizon lies inside the stream are kept,
    so ``drift_response_metrics`` can score every event it is given.
    """

    cfg = cs.preset_config(w.preset, seed=seed)
    events = list(cfg.schedule)
    if w.rescale_events:
        events = [replace(e, t_start=e.t_start * w.rows // cfg.dataset_size) for e in events]
    events = [e for e in events if e.t_start + 2 * w.window <= w.rows]
    return replace(cfg, dataset_size=w.rows, schedule=cs.DriftSchedule(tuple(events)))


def sidecar_meta(cfg, gen, rows: int) -> dict:
    """The metadata the ``generate`` command writes beside its CSV."""

    boundaries = [{"id": "concept0", "t_start": 0}]
    for i, event in enumerate(cfg.schedule):
        boundaries.append(
            {
                "id": f"concept{i + 1}",
                "t_start": event.t_start,
                "t_end": event.t_end,
                "kind": event.kind,
                "rate": event.rate,
            }
        )
    return {
        "seed": cfg.seed,
        "rows": rows,
        "task": cfg.task,
        "config": cs.config_to_document(cfg),
        "schedule": cfg.schedule.to_dict(),
        "concept_boundaries": boundaries,
        "feature_columns": dict(zip(gen.feature_names, gen.emitted_features)),
        "format": {"missing": "empty field", "categories": "integer codes"},
    }


class Tally:
    """Operations attempted and failed over a run, with what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class DigestBook:
    """SHA-256 of every generated CSV, per program version and stream.

    Digests are compared only under the same source fingerprint: a change
    to the program may change the bytes on purpose.
    """

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        self.entries = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, key: str, digest: str) -> bool:
        book = self.entries.setdefault(self.source, {})
        return book.setdefault(key, digest) == digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.entries, indent=1, sort_keys=True))


class Pass:
    """Stage times and row count of one pass: one stream of a workload."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = dict.fromkeys(STAGES, 0.0)
        self.rows = 0
        self.wall = 0.0

    @property
    def stage_total(self) -> float:
        return sum(self.times.values())

    @contextmanager
    def stage(self, name: str):
        span = self.tracer.open(f"stage.{name}") if self.tracer else None
        t0 = perf_counter()
        try:
            yield
        finally:
            self.times[name] += perf_counter() - t0
            if self.tracer:
                self.tracer.close(span)


def run_pass(w, workload_seed, pass_no, work_dir, tally, digests, tracer=None) -> Pass:
    p = Pass(tracer)
    csv = work_dir / f"{w.name}.csv"
    if tracer:
        tracer.stream_id = pass_no
    t0 = perf_counter()
    completed = run_stream(w, preset_seed(workload_seed, w.name, pass_no), csv, p, tally)
    p.wall = perf_counter() - t0
    if completed:
        key = f"{w}/{workload_seed}/{pass_no}"
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        tally.check(digests.check(key, digest), f"{key}: CSV digest differs from an earlier run")
    csv.unlink(missing_ok=True)
    cs.stream_io.sidecar_path(csv).unlink(missing_ok=True)
    return p


def run_stream(w: Workload, seed: int, path: Path, p: Pass, tally: Tally) -> bool:
    """One stream through setup, generate, evaluate and analyze, then the
    output checks.  A stage that raises ends the stream and returns False."""

    stage = "setup"
    tag = f"{w.name} preset seed {seed}"
    try:
        with p.stage("setup"):
            cfg = stream_config(w, seed)
            gen = cs.build_stream(cfg)

        stage = "generate"
        instances = []

        def rows():
            for _ in range(cfg.dataset_size):
                inst = gen.step()
                instances.append(inst)
                yield inst

        with p.stage("generate"):
            written = cs.write_stream_csv(path, rows(), gen.feature_names)
            cs.write_sidecar(path, sidecar_meta(cfg, gen, written))
        p.rows += written

        stage = "evaluate"
        with p.stage("evaluate"):
            frame = cs.read_stream_csv(path)
            n_classes = max(int(frame.y.max()) + 1, cfg.concept.n_classes)
            learner = cs.make_learner(w.learner, frame.task, frame.X.shape[1], n_classes)
            curve = cs.prequential_run(frame, learner, W=w.window, initial_train=w.window)
            responses = cs.drift_response_metrics(curve, cfg.schedule)

        stage = "analyze"
        with p.stage("analyze"):
            # the CLI refuses analysis on a stream with missing values; the
            # label column, which is never masked, is analyzed anyway
            y = frame.y.astype(float)
            if frame.missing_mask.any():
                columns, mmd_input = [y], y[:, None]
            else:
                columns, mmd_input = [*frame.X.T, y], frame.X
            acfs = [cs.acf(col, LAGS) for col in columns]
            boxes = [cs.ljung_box(col, LAGS) for col in columns]
            mmd = cs.mmd_heatmap(mmd_input, BATCH, seed=MMD_SEED)
    except Exception as exc:  # a failing stage is counted, and the run goes on
        tally.attempted += STAGES.index(stage)
        tally.check(False, f"{tag}: {stage} raised {exc!r}")
        return False
    tally.attempted += len(STAGES)

    check = tally.check
    n = cfg.dataset_size
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    check(written == n, f"{tag}: wrote {written} rows, asked for {n}")
    check(header == ",".join(gen.feature_names + ("y",)), f"{tag}: CSV header {header!r}")
    X_gen = np.array(
        [[np.nan if v is None else v for v in inst.features] for inst in instances], dtype=float
    )
    y_gen = np.array([inst.label for inst in instances])
    check(
        np.array_equal(frame.X, X_gen, equal_nan=True)
        and np.array_equal(frame.missing_mask, np.isnan(X_gen))
        and np.array_equal(frame.y, y_gen),
        f"{tag}: CSV read back differs from the generated values",
    )
    k = cfg.concept.n_classes
    check(bool(((frame.y >= 0) & (frame.y < k)).all()), f"{tag}: labels outside [0, {k})")
    check(
        len(curve.series) == n - w.window
        and bool(((curve.series >= 0) & (curve.series <= 1)).all()),
        f"{tag}: prequential curve has wrong length or accuracy outside [0, 1]",
    )
    check(len(responses) == len(cfg.schedule), f"{tag}: drift responses miss events")
    check(all(a.correlations[0] == 1.0 for a in acfs), f"{tag}: acf[0] != 1")
    check(all(0.0 <= b.p_value <= 1.0 for b in boxes), f"{tag}: Ljung-Box p outside [0, 1]")
    V = mmd.values
    check(
        bool(np.isfinite(V).all())
        and np.array_equal(V, V.T)
        and not np.diag(V).any()
        and bool((V >= 0).all()),
        f"{tag}: MMD matrix not symmetric, finite, zero-diagonal and non-negative",
    )
    for i, j, ref in reference_mmd_pairs(mmd_input, mmd.n_batches):
        check(abs(V[i, j] - ref) <= 1e-9, f"{tag}: MMD[{i},{j}] = {V[i, j]!r}, reference {ref!r}")
    return True


# ---------------------------------------------------------------------------
# numpy reference for the MMD heatmap


def _sq_dists(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Exact pairwise squared distances, in row blocks to bound memory."""

    out = np.empty((P.shape[0], Q.shape[0]))
    for s in range(0, P.shape[0], 100):
        out[s : s + 100] = ((P[s : s + 100, None, :] - Q[None, :, :]) ** 2).sum(axis=-1)
    return out


def reference_mmd_pairs(M: np.ndarray, n_batches: int):
    """(i, j, squared MMD) for a few batch pairs, computed from the
    definition: global standardization, median-distance bandwidth over the
    seeded 1000-row subsample, biased V-statistic with an RBF kernel."""

    scale = M.std(axis=0)
    scale[scale == 0] = 1.0
    Z = (M - M.mean(axis=0)) / scale
    sub = Z
    if len(Z) > 1000:
        idx = np.random.default_rng(MMD_SEED).choice(len(Z), size=1000, replace=False)
        sub = Z[np.sort(idx)]
    dist = np.sqrt(_sq_dists(sub, sub))
    bw = float(np.median(dist[np.triu_indices_from(dist, k=1)])) or 1.0

    def kernel_mean(A, B):
        return np.exp(-_sq_dists(A, B) / (2.0 * bw * bw)).mean()

    last = n_batches - 1
    for i, j in sorted({(0, 1), (0, last), (last // 2, last // 2 + 1)}):
        A = Z[i * BATCH : (i + 1) * BATCH]
        B = Z[j * BATCH : (j + 1) * BATCH]
        yield i, j, max(float(kernel_mean(A, A) + kernel_mean(B, B) - 2.0 * kernel_mean(A, B)), 0.0)
