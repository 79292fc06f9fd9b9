"""Benchmark of the causalstream pipeline: generate -> evaluate -> analyze.

    python3 bench/run.py --workload tall-narrow --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  See ``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# the keys of pipeline.WORKLOADS, repeated because pipeline imports the
# package, which must not happen before the import is timed
WORKLOAD_NAMES = ("wide-missing", "tall-narrow", "windowed-drift")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


_TIMED_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import causalstream; print(time.perf_counter() - t0)"
)
# a process imports a module once, so the median of set-up needs fresh ones
EXTRA_IMPORTS = 2


def import_package():
    """Import causalstream from this checkout's ``src/``.

    Returns the module and the median import time of this import and of
    ``EXTRA_IMPORTS`` more in fresh interpreters; users pay it once per
    process.
    """

    if not (SRC / "causalstream" / "__init__.py").is_file():
        sys.exit(f"bench: no causalstream package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import causalstream

    times = [perf_counter() - t0]
    if Path(causalstream.__file__).resolve().parent != SRC / "causalstream":
        sys.exit(f"bench: causalstream was imported from {causalstream.__file__}, not {SRC}")
    for _ in range(EXTRA_IMPORTS):
        out = subprocess.run(
            [sys.executable, "-c", _TIMED_IMPORT, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(out.stdout))
    return causalstream, statistics.median(times)


def source_fingerprint() -> str:
    """SHA-256 over the package sources, which identifies the program where
    no git commit is at hand."""

    h = hashlib.sha256()
    for f in sorted((SRC / "causalstream").rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""

    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_info(np) -> dict:
    """BLAS library, version and the thread count it runs with."""

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "library": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        info["library"] = os.path.basename(lib)
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment(np, scipy, source, w, args, passes) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source,
        "blas": blas_info(np),
        "workload": w.name,
        "preset": w.preset,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rows_per_stream": w.rows,
        "passes": len(passes),
        "rows": sum(p.rows for p in passes),
        "pass_stage_s": [p.times for p in passes],
    }


def end_to_end(passes, import_s) -> dict:
    """Rates over all of the run's passes, times as the median pass; set-up
    adds the import, which a process pays once."""

    def rate(stage):
        return sum(p.rows for p in passes) / sum(p.times[stage] for p in passes)

    return {
        "setup_s": (import_s + statistics.median(p.times["setup"] for p in passes), "s"),
        "generate_rows_per_s": (rate("generate"), "rows/s"),
        "evaluate_rows_per_s": (rate("evaluate"), "rows/s"),
        "analyze_s": (statistics.median(p.times["analyze"] for p in passes), "s"),
        "total_s": (import_s + statistics.median(p.stage_total for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = perf_counter()
    cs, import_s = import_package()

    import numpy as np
    import scipy

    import pipeline
    from tracing import Tracer, layer_metrics

    w = pipeline.WORKLOADS[args.workload]
    work_dir = OUT / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    tally = pipeline.Tally()
    source = source_fingerprint()
    digests = pipeline.DigestBook(OUT / "digests.json", source)

    def run(k, tracer=None):
        return pipeline.run_pass(w, args.seed, k, work_dir, tally, digests, tracer)

    def budget_left(durations) -> bool:
        return perf_counter() - started + statistics.median(durations) <= args.seconds

    if not args.trace:
        passes = []
        while True:
            passes.append(run(len(passes)))
            if not budget_left([p.wall for p in passes]):
                break
        metrics = end_to_end(passes, import_s)
    else:
        # traced and untraced passes over the same streams, in alternating
        # order; their difference is the tracing overhead
        tracer = Tracer()
        plain, traced, summaries = [], [], []

        def traced_pass(k):
            first = tracer.mark()
            tracer.install(cs)
            try:
                traced.append(run(k, tracer))
            finally:
                tracer.uninstall()
            summaries.append(tracer.summary(first))

        while True:
            k = len(plain)
            if k % 2:
                traced_pass(k)
                plain.append(run(k))
            else:
                plain.append(run(k))
                traced_pass(k)
            if not budget_left([a.wall + b.wall for a, b in zip(plain, traced)]):
                break
        passes = plain + traced
        metrics = layer_metrics(summaries, tracer.counters, tracer.errors)
        untraced_s = import_s + statistics.median(p.stage_total for p in plain)
        traced_s = import_s + statistics.median(p.stage_total for p in traced)
        metrics.update(
            {
                "import.s": (import_s, "s"),
                "trace.untraced_total_s": (untraced_s, "s"),
                "trace.traced_total_s": (traced_s, "s"),
                "trace.overhead_s": (traced_s - untraced_s, "s"),
                "trace.spans": (tracer.n_spans / len(traced), "count"),
            }
        )
        tracer.write(OUT / f"spans-{w.name}.npz")
    digests.save()

    env = environment(np, scipy, source, w, args, passes)
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, environment=env, failures=tally.failures, failed_ops=share)
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ops = {share:.6g} share ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
