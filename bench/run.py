"""quasilab benchmark: one command, three workloads.

    python3 bench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs to be installed.
The workload runs in a fresh process (``worker.py``) with BLAS threads
pinned to one and ``src`` on the path. Set-up time is measured from
spawning a fresh interpreter until it reports quasilab imported and the
inputs generated, over several fresh interpreters, and reported as the
median. With ``--trace 0`` the last line of output is the result with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a traced run instead. The full result, with every
metric, the per-round data behind it and any problem found, is written to
``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread: on a 2-CPU machine the default thread pool now and then
# makes the d^2 x d^2 products of highdim twenty times slower.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 10
TIMEOUT_S = 170.0

# A shared machine runs the same code up to two thirds slower, in spells
# of seconds to minutes. So each timed sample (a round, or a set-up) is
# paired with a speed probe that this process times right after it, and
# scaled by PROBE_REF_S / probe: the probe is PROBE_SAMPLES products of
# two fixed 512 x 512 complex matrices, and PROBE_REF_S its median on the
# reference machine (2 Xeon CPUs at 2.1 GHz, one BLAS thread, few other
# tenants). Rounds shorter than PROBE_EVERY_S share the next probe. The
# unscaled values are kept in the result file.
PROBE_N = 512
PROBE_SAMPLES = 5
PROBE_EVERY_S = 1.0
PROBE_REF_S = 0.016


class Probe:
    """The speed probe. It runs in this process, which never imports
    quasilab, so no change to the program can move it."""

    def __init__(self):
        import numpy as np  # imported after main() pinned BLAS to one thread

        rng = np.random.default_rng(0)
        self.matrix = rng.normal(size=(PROBE_N, PROBE_N)) + 1j * rng.normal(size=(PROBE_N, PROBE_N))
        self.times: list[float] = []
        self.paired: list[float] = []

    def run(self, samples_before: int) -> None:
        """Time the probe and pair it with the last ``samples_before``
        timed samples that have no probe yet."""
        times = []
        for _ in range(PROBE_SAMPLES):
            start = time.perf_counter()
            self.matrix @ self.matrix
            times.append(time.perf_counter() - start)
        self.times += times
        self.paired += [statistics.median(times)] * samples_before

    def scaled(self, samples: list[float]) -> list[float]:
        """The samples in reference seconds."""
        if len(samples) != len(self.paired):
            raise RuntimeError(f"{len(samples)} samples but {len(self.paired)} paired probes")
        return [x * PROBE_REF_S / p for x, p in zip(samples, self.paired)]


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(args, extra=()) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and the seconds from spawn to ready."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, deadline: float, probe: Probe | None = None) -> str:
    """Serve the worker until it exits; returns its last line of output.

    The worker prints ``round`` after each timed round and waits for a
    reply; the probe runs in that pause, while the worker's clock is
    stopped."""
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    last_line, last_probe, unpaired = "", time.monotonic(), 0
    try:
        for line in proc.stdout:
            if line.strip() != "round":
                last_line = line
                continue
            unpaired += 1
            if probe is not None and time.monotonic() - last_probe >= PROBE_EVERY_S:
                probe.run(unpaired)
                last_probe, unpaired = time.monotonic(), 0
            proc.stdin.write("go\n")
            proc.stdin.flush()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode} (killed at the time limit if negative)")
    if probe is not None and unpaired:
        probe.run(unpaired)
    return last_line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "quasilab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no quasilab source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + TIMEOUT_S
    os.environ.update(PINNED)

    if args.trace:
        proc, _ = spawn(args)
        result = json.loads(finish(proc, deadline))
        metrics = result["metrics"]
    else:
        setup_probe, round_probe = Probe(), Probe()
        setup = []
        # The first interpreter also writes the bytecode caches; not timed.
        for k in range(SETUP_SAMPLES + 1):
            proc, ready = spawn(args, ["--setup-only"])
            finish(proc, deadline)
            if k:
                setup.append(ready)
                setup_probe.run(1)
        proc, _ = spawn(args)
        result = json.loads(finish(proc, deadline, round_probe))
        metrics = result["metrics"]
        rounds = metrics["round_samples_s"]["value"]
        ops = metrics["timed_ops"]["value"]
        scaled = round_probe.scaled(rounds)
        metrics["setup_s"] = {"value": statistics.median(setup_probe.scaled(setup)), "unit": "s"}
        metrics["round_s"] = {"value": statistics.median(scaled), "unit": "s"}
        # Every round does the same operations, so the median round gives
        # the throughput too.
        per_round = ops / len(rounds)
        metrics["ops_per_s"] = {"value": per_round / metrics["round_s"]["value"], "unit": "1/s"}
        metrics["unscaled"] = {
            "value": {"setup_s": statistics.median(setup), "round_s": statistics.median(rounds),
                      "ops_per_s": per_round / statistics.median(rounds)},
            "unit": "s, s, 1/s",
        }
        metrics["setup_samples_s"] = {"value": setup, "unit": "s"}
        metrics["setup_probe_s"] = {"value": setup_probe.times, "unit": "s"}
        metrics["round_probe_s"] = {"value": round_probe.times, "unit": "s"}

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: the worker did not measure {missing}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
