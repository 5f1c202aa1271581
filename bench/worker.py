"""One workload in one fresh process.

Started by ``run.py`` with BLAS threads pinned and ``src`` on the path.
Prints ``ready`` once quasilab is imported and the inputs are generated
(``run.py`` times set-up up to that line), then runs one untimed round
and whole timed rounds until the measuring time is spent, and prints one
JSON line with the result. After each timed round it prints ``round`` and
waits for ``run.py`` to time its speed probe. With ``--trace 1`` the
first half of the time runs untraced and the second half traced, so the
tracing overhead is the difference of the two.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
DIMS = (8, 16, 24, 32)
MAX_PROBLEMS = 20


def run_rounds(workload, seconds: float, rounds: list, totals: dict, on_round=None) -> None:
    """Run whole rounds until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    while True:
        result = workload.run_round()
        rounds.append(result.program_s)
        totals["attempted"] += result.attempted
        totals["failed"] += result.failed
        totals["problems"] += result.problems[: MAX_PROBLEMS - len(totals["problems"])]
        totals["failures"].update(result.failures)
        if on_round is not None:
            on_round(len(rounds))
        if time.perf_counter() >= deadline:
            return


def peak_rss_mb() -> float:
    """Peak resident size of this process. ``ru_maxrss`` also counts the
    parent's size at the fork that started it, so the kernel's high-water
    mark of this process's own memory is read where there is one."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pause(_rounds: int) -> None:
    """After a timed round: let ``run.py`` time its speed probe while no
    round is being timed."""
    print("round", flush=True)
    sys.stdin.readline()


def per_layer(workload_name: str, seed: int, seconds: float, workload, totals: dict) -> dict:
    """Run untraced, then traced; derive the per-layer metrics."""
    from spans import LAYERS, NUMPY_COUNTED, Tracer, instrument, public_functions

    import quasilab

    untraced: list[float] = []
    run_rounds(workload, seconds / 2.0, untraced, totals)

    tracer = Tracer()
    per_round = []

    def collect(n):
        per_round.append((tracer.calls, tracer.self_ns))
        if n == 1:
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{workload_name}-seed{seed}.csv.gz")
        tracer.reset()

    traced: list[float] = []
    tracer.reset(keep_spans=True)
    restore = instrument(tracer)
    try:
        run_rounds(workload, seconds / 2.0, traced, totals, on_round=collect)
    finally:
        restore()

    names = ["operators.QuasiState"]
    names += [
        f"{layer}.{fn}"
        for layer in LAYERS
        for fn in public_functions(getattr(quasilab, layer))
    ]
    first_calls = per_round[0][0]
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (first_calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(ns[name] for _, ns in per_round) / 1e9, "s")
    for name, _, _ in NUMPY_COUNTED:
        metrics[f"{name}.calls"] = (first_calls[name], "count")
    for dim in DIMS:
        durations = tracer.keyed_ns.get(("highdim.detection_probability", dim))
        metrics[f"highdim.detection_probability.ms.d{dim}"] = (
            statistics.median(durations) / 1e6 if durations else 0.0,
            "ms",
        )
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["trace.untraced_round_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_round_s"] = (statistics.median(traced), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    totals = {"attempted": 0, "failed": 0, "problems": [], "failures": set()}
    # One untimed round first: the first call of each path pays for page
    # faults on fresh buffers and lazy set-up inside numpy. Its outputs are
    # checked and counted like any other round's.
    run_rounds(workload, 0.0, [], totals)
    if args.trace:
        metrics = per_layer(args.workload, args.seed, args.seconds, workload, totals)
    else:
        rounds: list[float] = []
        warm_attempted = totals["attempted"]
        run_rounds(workload, args.seconds, rounds, totals, on_round=pause)
        metrics = {
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "timed_ops": (totals["attempted"] - warm_attempted, "count"),
            "round_samples_s": (rounds, "s"),
        }
    print(
        json.dumps(
            {
                "correct": not totals["problems"],
                "attempted": totals["attempted"],
                "failed": totals["failed"],
                "problems": totals["problems"],
                "failures": sorted(totals["failures"]),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
