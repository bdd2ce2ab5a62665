"""Benchmark of `sqc`: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `sqc` is imported from its
`src` directory. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones,
and a span summary is written to .bench_out/. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
MIN_ROUNDS = 3


def _import_sqc() -> None:
    src = ROOT / "src"
    if not (src / "sqc" / "__init__.py").is_file():
        sys.exit(f"bench: no sqc sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import sqc.cli  # noqa: F401  (imports every sqc module)

    if Path(sqc.__file__).resolve().parent != src / "sqc":
        sys.exit(f"bench: imported sqc from {sqc.__file__}, not from {src}")


def _measure(workload, seconds: float, tracer) -> tuple[list[dict], list[dict]]:
    """Whole rounds until the time is up; plain and, if traced, traced timings."""
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        inp = workload.new_inputs()
        plain.append(workload.round(inp, None))
        if tracer is not None:
            traced.append(workload.round(inp, tracer))
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_sqc()
    sys.path.insert(0, str(BENCH))
    from spans import Tracer
    from workloads import PROBE_REF_S, WORKLOADS, mean_round

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        setup, setup_speed = workload.setup_seconds()
        tracer = Tracer() if args.trace else None
        plain, traced = _measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # End-to-end times are given at the reference machine's speed: the
    # measured seconds times the speed probe's reference time over its
    # mean time beside the measurement (README, "Reference speed").
    setup_probe, round_probe = statistics.fmean(setup_speed), statistics.fmean(workload.speed)
    print(f"measured: setup {statistics.median(setup):.4f} s, round {mean_round(plain):.4f} s, "
          f"speed probe {setup_probe * 1e3:.3f} / {round_probe * 1e3:.3f} ms")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup) * PROBE_REF_S / setup_probe, "s"),
            "round_s": (mean_round(plain) * PROBE_REF_S / round_probe, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        # Every workload reports every per-layer metric; the operations
        # and layers of the other workloads read 0.
        metrics = {}
        for cls in WORKLOADS.values():
            own = cls is type(workload)
            metrics.update(cls.op_metrics(plain if own else []))
            metrics.update(cls.layer_metrics(tracer if own else Tracer()))
        metrics["trace.overhead_s"] = (mean_round(traced) - mean_round(plain), "s")
        metrics["speed.probe_ms"] = (round_probe * 1e3, "ms")
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")

    problems = workload.problems + workload.run_problems()
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
