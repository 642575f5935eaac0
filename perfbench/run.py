"""trackseg benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details, spans and the environment go to ``.perfbench_out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
# Seconds the reference kernel takes on an uncontended core of a 2-vCPU
# x86-64 host; timings are scaled to a machine of that speed.
REFERENCE_NOMINAL_S = 0.5
# kernel runs around each repetition, by whether the workload repeats
REF_RUNS = {True: 1, False: 3}

# end-to-end metrics: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s_norm", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
)

LIMITS = ("timings are in-process wall clock (time.perf_counter) only: no "
          "system-wide tracing, no cache or CPU-frequency control, and "
          "other tenants of the machine are not excluded")


def _cap_blas_threads() -> None:
    """At most one OpenBLAS thread per usable CPU; must run before numpy
    is imported."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(nproc, int(asked)) if asked.isdigit() and int(asked) > 0 \
        else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)


def _openblas() -> dict:
    """Version and thread count reported by the loaded OpenBLAS."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}",
                                      None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"openblas": get_config().decode(),
                        "openblas_threads": get_threads()}
    return {"openblas": None, "openblas_threads": None}


def environment(seed: int) -> dict:
    import numpy
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            **_openblas(), "load": "closed loop, one process, one caller",
            "limits": LIMITS}


def _reference_s() -> float:
    """Wall time of a fixed kernel that does not touch the package:
    interpreter work, small-array numpy calls and passes over a larger
    array, the mix the workloads spend their time in.

    Other tenants slow this machine by up to a third for minutes at a
    time; the workloads and this kernel slow together, so their ratio
    stays put."""
    import numpy as np
    small = np.linspace(0.0, 1.0, 64)
    big = np.linspace(0.0, 1.0, 250_000)  # small enough to leave peak RSS
    start = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += float((small * (1.0 + i * 1e-9)).sum())
    for _ in range(120):
        acc += float(np.count_nonzero(big * big <= 0.25))
    return time.perf_counter() - start


def _reference_runs(workload) -> list[float]:
    return [_reference_s() for _ in range(REF_RUNS[workload.repeats])]


def _setup(workload, seed: int, work: Path):
    """Set up SETUP_REPS times from scratch; keep the last inputs."""
    times, digests = [], []
    for i in range(SETUP_REPS):
        rep_dir = work / f"setup{i}"
        start = time.perf_counter()
        cfg = workload.inputs(rep_dir, seed, workload.fixture(rep_dir))
        times.append(time.perf_counter() - start)
        digests.append(workload.input_digest(cfg))
        if i + 1 < SETUP_REPS:
            shutil.rmtree(rep_dir)
    return cfg, times, digests


def _timed(workload, cfg, seconds: float, tracer=None, refs=None):
    """Repetitions of the timed phase, as many as fit in `seconds` (at
    least one).  With a tracer, every repetition runs twice, untraced and
    then traced, so that both see the same machine; returns (untraced,
    traced) repetitions.  With `refs`, reference times are appended
    before every repetition: one, or three around a single long one."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if refs is not None:
            refs += _reference_runs(workload)
        plain.append(workload.rep(cfg))
        if tracer is not None:
            with tracer.installed():
                traced.append(workload.rep(cfg))
        elapsed = time.perf_counter() - start
        if not workload.repeats or \
                elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced


def _tally(reps) -> tuple[int, int]:
    """Attempted and failed operations; a repetition whose quality digest
    differs from the first one's failed in full."""
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.attempted if r.digest != reps[0].digest else r.failed
                 for r in reps)
    return attempted, failed


def _rate(reps) -> float:
    """Operations per second over every repetition's timed stages."""
    timed_s = sum(r.timed_s for r in reps)
    return sum(r.ops for r in reps) / timed_s if timed_s else 0.0


def _stage_walls(reps) -> float:
    return sum(sum(r.stage_s.values()) for r in reps)


def measure(workload, seed: int, seconds: float, trace: bool, work: Path,
            import_s: float):
    """Returns (metrics, attempted, failed, repetitions, details)."""
    if not trace:
        refs = [_reference_s()]
        cfg, setup_times, input_digests = _setup(workload, seed, work)
        reps, _ = _timed(workload, cfg, seconds, refs=refs)
        refs += _reference_runs(workload)
        attempted, failed = _tally(reps)
        if len(set(input_digests)) > 1:
            failed = attempted
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = import_s + statistics.median(setup_times)
        # > 1 when the machine runs slower than nominal
        slowdown = statistics.fmean(refs) / REFERENCE_NOMINAL_S
        values = {
            "setup_s": setup_s / slowdown,
            "ops_per_s_norm": _rate(reps) * slowdown,
            "peak_rss_mb": peak_mb,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
        details = {"setup_s": setup_times, "import_s": import_s,
                   "input_digests": input_digests, "reference_s": refs,
                   "slowdown": slowdown, "wall_setup_s": setup_s,
                   "wall_ops_per_s": _rate(reps)}
        return metrics, attempted, failed, reps, details

    from tracing import Tracer
    tracer = Tracer()
    fixture = workload.fixture(work)  # a trained model is not traced
    with tracer.installed():
        cfg = workload.inputs(work, seed, fixture)
    plain, traced = _timed(workload, cfg, 2 * seconds, tracer)
    overhead = _stage_walls(traced) - _stage_walls(plain)
    metrics, absent = tracer.metrics(overhead)
    attempted, failed = _tally(plain + traced)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps({
        "columns": ["id", "name", "start_s", "end_s", "parent", "group"],
        "spans": tracer.spans}))
    details = {"absent": absent, "skipped_targets": tracer.skipped,
               "spans": str(spans_path.relative_to(ROOT))}
    return metrics, attempted, failed, plain + traced, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "trackseg").is_dir():
        print(f"perfbench: no trackseg package under {ROOT / 'src'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    _cap_blas_threads()
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as err:
        print(f"perfbench: cannot import trackseg from {ROOT / 'src'}: "
              f"{err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](
        workloads.SIZES[args.scale][args.workload])

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        metrics, attempted, failed, reps, details = measure(
            workload, args.seed, args.seconds, bool(args.trace), work,
            import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    report = {
        "workload": args.workload, "scale": args.scale, "trace": args.trace,
        "environment": env, "metrics": metrics,
        "reps": [{"ops": r.ops, "timed_s": r.timed_s, "stage_s": r.stage_s,
                  "digest": r.digest, "quality": r.quality,
                  "problems": r.problems}
                 for r in reps],
        **details,
    }
    report_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale}: {len(reps)} repetition(s), openblas "
          f"threads={env['openblas_threads']}, nproc={env['nproc']}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  quality {json.dumps(reps[0].quality, sort_keys=True)}")
    print(f"  digest {reps[0].digest}")
    for problem in sorted({p for r in reps for p in r.problems}):
        print(f"  FAILED CHECK {problem}")
    print(f"  report {report_path.relative_to(ROOT)}; {LIMITS}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
