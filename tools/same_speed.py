"""Same speed: time this checkout's ``src/`` against another one's in one
process, and print for each path the median change/parent time ratio
(here / there) with its quartiles.

    python tools/same_speed.py OTHER_SRC [--pairs N] [--paths PATH...]

OTHER_SRC is the ``src`` directory of another checkout, for example the
parent commit's, unpacked with ``git archive REV src | tar -x -C DIR``.
Each tree's ``quasilab`` is copied to a scratch package name (its imports
are relative, so the copy imports as it is), and both copies are imported
into this one process. A path is a fixed call with fixed inputs. For each
path, a pair times that call on one tree and then on the other, the first
tree alternating from pair to pair; a sample is as many calls as take at
least a millisecond or so. Both halves of a pair share the machine's spell
of speed, so their ratio cancels it where the times of separate runs
would not. A ratio below 1 means this checkout is faster.

The paths: ``run_all`` at seed 42 and each criterion at seed 42; one round
of the benchmark's ``cli_requests`` and ``highdim_scan`` workloads at seed
7 (``bench/workloads.py``, loaded once against each tree); the
single-instance calls ``real_pairing``, a 16x16 ``QuasiState``,
``to_operator``, ``pc_check``, a qubit's ``min_eigenvalue`` and
``chsh_experiment``; and ``build_box`` and ``hermitian_eigensystem`` on one
instance and on criterion 9's 1,000 draws at seed 42 (their source
operators, for the eigensystem). BLAS runs on one thread, as in the
benchmark.

Each tree's minor page faults per call (``resource.getrusage``, over its
samples) are printed next to its time: a path that allocates and frees
large temporaries pays for the pages it faults in again, and that cost
depends on the heap state both trees share in the one process. Next to
them, each path's transient peak on each tree: the most memory one call
holds above what was held before it, numpy's arrays included, as
``tracemalloc`` counts it in one extra call per tree. Those calls are made
after every path is timed, so that tracing touches no timing.

The footer gives each tree's ``src/`` line count, as ``cat
src/quasilab/*.py | wc -l`` counts it, which is tracked next to speed.

This tool does not replace the benchmark's end-to-end gate; a claimed gain
cites both.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "bench"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SUBMODULES = ("operators", "bloch", "nonlocal_box", "discrimination", "highdim", "reporting", "acceptance", "cli")
CRITERIA = (
    "chsh_law_criterion",
    "maximal_box_criterion",
    "pc_psd_equivalence_criterion",
    "predictability_witness_criterion",
    "clonability_criterion",
    "discrimination_criterion",
    "highdim_grid_criterion",
    "cross_consistency_criterion",
    "pipeline_oracle_criterion",
)
SEEDED = {3, 4, 5, 6, 7, 9}
SEED, WORKLOAD_SEED = 42, 7
MIN_SAMPLE_S = 1e-3


def load_tree(src: Path, name: str, scratch: Path):
    """Import the ``quasilab`` of ``src`` as package ``name`` from a copy in
    ``scratch``, with its submodules as attributes, and
    ``bench/workloads.py`` loaded against it."""
    shutil.copytree(Path(src) / "quasilab", scratch / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(scratch))
    try:
        package = importlib.import_module(name)
    finally:
        sys.path.remove(str(scratch))
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    # workloads.py says ``from quasilab import ...``: for its load, that
    # name is this copy
    saved = sys.modules.get("quasilab")
    sys.modules["quasilab"] = package
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"{name}.workloads", BENCH / "workloads.py")
        package.workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(package.workloads)
    finally:
        sys.path.remove(str(BENCH))
        if saved is None:
            del sys.modules["quasilab"]
        else:
            sys.modules["quasilab"] = saved
    return package


def paths(q) -> dict:
    """Each path's call on the tree ``q``, its inputs made beforehand."""
    import numpy as np

    r = np.array([0.3, -0.4, 1.2])
    rng = np.random.default_rng(SEED)
    half = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m16 = half + half.conj().T
    m16 += np.eye(16) * (1.0 - np.trace(m16).real) / 16
    acceptance = q.acceptance
    calls = {"run_all": lambda: acceptance.run_all(SEED)}
    for number, name in enumerate(CRITERIA, start=1):
        criterion = getattr(acceptance, name)
        calls[f"criterion_{number}"] = (lambda c=criterion: c(SEED)) if number in SEEDED else criterion
    calls["cli_requests"] = q.workloads.CliRequests(WORKLOAD_SEED).run_round
    calls["highdim_scan"] = q.workloads.HighdimScan(WORKLOAD_SEED).run_round
    calls["real_pairing"] = lambda: q.operators.real_pairing(0.25 + 1e-14j)
    calls["quasi_state_16"] = lambda: q.operators.QuasiState(m16)
    calls["to_operator"] = lambda: q.bloch.to_operator(r)
    calls["pc_check"] = lambda: q.bloch.pc_check(r)
    calls["min_eigenvalue"] = lambda: q.bloch.to_operator(r).min_eigenvalue
    calls["chsh_experiment"] = lambda: q.nonlocal_box.chsh_experiment(r)
    draws = acceptance._pipeline_draws(np.random.default_rng(SEED), 1000)
    qubit, qubits = q.bloch.to_operator(r).matrix, q.bloch.to_operator(draws).matrix
    calls["build_box_1"] = lambda: q.nonlocal_box.build_box(r)
    calls["build_box_1000"] = lambda: q.nonlocal_box.build_box(draws)
    calls["eigensystem_1"] = lambda: q.operators.hermitian_eigensystem(qubit)
    calls["eigensystem_1000"] = lambda: q.operators.hermitian_eigensystem(qubits)
    return calls


def _sample(call, repeat: int) -> tuple[float, int]:
    """The seconds and the minor page faults of ``repeat`` calls."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(repeat):
        call()
    elapsed = time.perf_counter() - start
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def time_pairs(here, there, pairs: int) -> list[tuple[float, float, float, float]]:
    """``pairs`` (here, there) sample times, in seconds per call, each
    followed by its minor page faults per call; the tree that runs first
    alternates from pair to pair."""
    here(), there()  # warm-up
    repeat = 1
    while _sample(here, repeat)[0] < MIN_SAMPLE_S:
        repeat *= 2
    times = []
    for k in range(pairs):
        if k % 2:
            b = _sample(there, repeat)
            a = _sample(here, repeat)
        else:
            a = _sample(here, repeat)
            b = _sample(there, repeat)
        times.append((a[0] / repeat, b[0] / repeat, a[1] / repeat, b[1] / repeat))
    return times


def transient_peak_mb(call) -> float:
    """The MB one call of ``call`` holds at most above what was held when
    it began, numpy's arrays included, as ``tracemalloc`` counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def src_lines(src: Path) -> int:
    """The lines of the package's modules under ``src``."""
    return sum(path.read_text().count("\n") for path in (Path(src) / "quasilab").glob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(other_src: Path, pairs: int = 30, only=None) -> dict:
    """Per path (all, or those named in ``only``), the quartiles of the
    here/there ratios, the median seconds and minor page faults per call
    on each tree, and each tree's transient peak in MB (taken after all
    paths are timed)."""
    names = ("quasilab_here", "quasilab_there")
    with tempfile.TemporaryDirectory() as scratch:
        try:
            here = load_tree(SRC, names[0], Path(scratch))
            there = load_tree(Path(other_src).resolve(), names[1], Path(scratch))
            calls_here, calls_there = paths(here), paths(there)
            result = {}
            for path in only or calls_here:
                times = time_pairs(calls_here[path], calls_there[path], pairs)
                result[path] = {
                    "ratio": quartiles([a / b for a, b, _, _ in times]),
                    "here_s": statistics.median(t[0] for t in times),
                    "there_s": statistics.median(t[1] for t in times),
                    "here_faults": statistics.median(t[2] for t in times),
                    "there_faults": statistics.median(t[3] for t in times),
                }
            for path, row in result.items():
                row["here_peak_mb"] = transient_peak_mb(calls_here[path])
                row["there_peak_mb"] = transient_peak_mb(calls_there[path])
        finally:
            for module in [m for m in sys.modules if m.split(".")[0] in names]:
                del sys.modules[module]
    return result


def main(argv: list[str]) -> int:
    os.environ.update(PINNED)  # before numpy loads
    parser = argparse.ArgumentParser(description="Time this checkout's src/ against another checkout's, pair by pair.")
    parser.add_argument("other_src", metavar="OTHER_SRC", type=Path)
    parser.add_argument("--pairs", type=int, default=30, help="pairs of samples per path (default 30)")
    parser.add_argument("--paths", nargs="+", metavar="PATH", help="time only these paths")
    args = parser.parse_args(argv)
    result = compare(args.other_src, args.pairs, args.paths)
    header = f"{'path':<16} {'median':>7} {'q1':>7} {'q3':>7} {'here ms':>10} {'there ms':>10}"
    print(f"{header} {'here flt':>9} {'there flt':>9} {'here MB':>8} {'there MB':>8}")
    for path, row in result.items():
        q1, median, q3 = row["ratio"]
        times = f"{row['here_s'] * 1e3:10.4f} {row['there_s'] * 1e3:10.4f}"
        faults = f"{row['here_faults']:9.1f} {row['there_faults']:9.1f}"
        peaks = f"{row['here_peak_mb']:8.3f} {row['there_peak_mb']:8.3f}"
        print(f"{path:<16} {median:7.3f} {q1:7.3f} {q3:7.3f} {times} {faults} {peaks}")
    print(f"here: {SRC}, there: {Path(args.other_src).resolve()}; ratio = here / there, {args.pairs} pairs per path;")
    print("flt = minor page faults per call; MB = transient peak of one call (tracemalloc)")
    print(f"src/ lines: here {src_lines(SRC)}, there {src_lines(args.other_src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
