"""Same behaviour: run one fixed corpus of CLI requests through this
checkout's ``src/`` and through another one, and say for each request
whether the two runs gave the same exit code, stdout and stderr.

    python tools/same_behaviour.py OTHER_SRC [--only-measured CHECK...]

OTHER_SRC is the ``src`` directory of another checkout of the package, for
example the parent commit's, unpacked with
``git archive REV src | tar -x -C DIR``. Each tree runs the whole corpus
through ``quasilab.cli.main`` in one process of its own, and the two
processes run side by side. A request's warnings are shown as in a process
of its own. Before the comparison, only the value of ``duration_ms`` is
masked, and the tree's own path in tracebacks and warnings.

``--only-measured`` names ``verify-all`` checks (as the report names them,
such as ``5-clonability-fixed-point/generic-pairs-margin``) whose measured
value alone may differ: a change that draws other instances moves them.
Their measured values are masked too, in the json, csv and text reports
and in the criterion lines on stderr, and each masked pair that differs is
printed under its request. Any other difference, a check's name, verdict,
tolerance or place, still makes the request differ.

The corpus: ``verify-all`` at seven seeds, the README's commands, the
``cli_requests`` stream of ``bench/workloads.py`` at seed 7, one exit-2
request per domain check the CLI can reach, and inputs at the edges of
what the CLI accepts, among them the boxes at the edges of the CHSH
settings; each in json, csv and text: 294 requests. The exit status is 1
when any request differs, else 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FORMATS = ("json", "csv", "text")
VERIFY_SEEDS = (0, 1, 3, 7, 42, 99, 12345)
STREAM_SEED = 7

# One request per check that turns a request away with exit 2: the flag
# types, then each domain the handlers and the constructions hold.
DOMAIN_CHECKS = (
    "pc-check",
    "pc-check --r=a,b,c",
    "pc-check --r=1,2",
    "pc-check --r=1e200,0,0",
    "chsh-sweep --r-min=abc --r-max=2 --steps=3",
    "chsh-sweep --r-min=1 --r-max=2 --steps=x",
    "chsh-sweep --r-min=1 --r-max=2 --steps=0",
    "chsh-sweep --r-min=1 --r-max=2 --steps=10001",
    "discriminate --r=0,0,2 --y=0.6 --z=0 --trials=20000001",
    "planes --r=0,0,2 --points=50001",
    "verify-all --seed=-1",
    "highdim --d=x --epsilon=0.5",
    "box --r=2000,0,0",
    "chsh-sweep --r-min=2 --r-max=1 --steps=3",
    "chsh-sweep --r-min=nan --r-max=2 --steps=3",
    "chsh-sweep --r-min=1 --r-max=2000 --steps=3",
    "discriminate --r=0,0,0.5 --y=0 --z=0",
    "discriminate --r=0,0,2 --y=nan --z=0",
    "discriminate --r=0,0,2 --y=0.9 --z=0.9",
    "clone-demo --r=0,0,0.5 --y=0 --z=0",
    "clone-demo --r=0,0,2 --y=0.9 --z=0.9",
    "highdim --d=33 --epsilon=0.5",
    "highdim --d=1 --epsilon=0.5",
    "highdim --d=3 --epsilon=600",
    "highdim --d=3 --epsilon=nan",
    "highdim --d=3 --epsilon=0",
    "highdim --d=3 --epsilon=0.5 --lambdas=-0.5",
    "highdim --d=3 --epsilon=0.5 --lambdas nan nan",
    "highdim --d=3 --epsilon=0.5 --lambdas 0.25 0.25",
    "highdim --d=3 --epsilon=0.5 --lambdas 2 -2.5",
    "planes --r=0,0,0.5",
)

# Inputs at the edges of the CLI's contract: seeds of any size, flag values
# that start with '-', a flag left without its value, a tail that overflows,
# and boxes at the edges of the CHSH settings: strength 0 (given, or a square
# that underflows), sqrt(2) and the next double above it.
EDGES = (
    "highdim --d 2 --epsilon 0.5 --phases random --seed " + str(10**400),
    "highdim --d 2 --epsilon 0.5 --phases random --seed 4611686018427387905",
    "pc-check --r -1,0,0",
    "discriminate --r 0,0,2 --y -1e-3 --z 0",
    "highdim --d 3 --epsilon 0.5 --lambdas -2.5e-1 -2.5e-1",
    "highdim --d 3 --epsilon -inf",
    "pc-check --r",
    "highdim --d 3 --epsilon 0.5 --lambdas 1e308 1e308",
    "box --r 0,0,0",
    "box --r 0,0,0 --settings tsirelson",
    "box --r 0,0,1.4142135623730951",
    "box --r 0,0,1.4142135623730954",
    "box --r 1e-170,0,0",
    "chsh-sweep --r-min 1e-320 --r-max 1e-320 --steps 2",
    "chsh-sweep --r-min 1e-320 --r-max 1.5 --steps 4",
)

# Runs in each tree's process: argv lists on stdin, then on stdout the file
# quasilab was imported from and (exit code, stdout, stderr) per request.
CHILD = r"""
import contextlib, io, json, sys, traceback, warnings
import quasilab
from quasilab import cli
results = [quasilab.__file__]
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "traceback"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

DURATION = re.compile(r'(duration_ms"?(?:: |,))[^,\n]*')


def _measured_patterns(checks) -> list[tuple[str, re.Pattern]]:
    """Per named ``verify-all`` check, a regex for each place its measured
    value is printed: the json, csv and text reports on stdout, and its
    criterion's line on stderr when it is the criterion's worst check.
    Group 1 is the text before the value, group 2 the value."""
    patterns = []
    for check in checks:
        number, _, rest = check.partition("-")
        criterion, _, sub = rest.partition("/")
        name = re.escape(check)
        worst = re.escape(f"criterion {number}: {criterion} (worst={sub}, measured=")
        patterns += [
            (check, re.compile(rf'("measured": )([^,\n]*)(?=,\n\s*"name": "{name}")')),
            (check, re.compile(rf"(?m)(^check,{name},)([^,\n]*)")),
            (check, re.compile(rf"(\] {name} \(measured=)([^,\n]*)")),
            (check, re.compile(rf"({worst})([^,\n]*)")),
        ]
    return patterns


def _mask_measured(run: tuple, patterns) -> tuple[tuple, list[tuple[str, str, str]]]:
    """The run with each pattern's value masked, and what was masked as
    (stream, check, value) in pattern order."""
    code, *streams = run
    masked = []
    for i, stream in enumerate(("stdout", "stderr")):
        for check, pattern in patterns:
            masked += [(stream, check, m[2]) for m in pattern.finditer(streams[i])]
            streams[i] = pattern.sub(r"\1<masked>", streams[i])
    return (code, *streams), masked


def _readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("quasilab ")]


def _stream_commands() -> list[list[str]]:
    sys.path[:0] = [str(ROOT / "bench"), str(SRC)]
    import workloads

    stream = workloads.CliRequests(STREAM_SEED).requests
    return [[a for a in req.argv if not a.startswith("--format")] for req in stream]


def corpus() -> list[list[str]]:
    """Every request of the corpus, as an argv for ``cli.main``, once each."""
    commands = [["verify-all", f"--seed={seed}"] for seed in VERIFY_SEEDS]
    commands += _readme_commands() + _stream_commands()
    commands += [shlex.split(line) for line in DOMAIN_CHECKS + EDGES]
    requests = [(*argv, f"--format={fmt}") for argv in commands for fmt in FORMATS]
    return [list(argv) for argv in dict.fromkeys(requests)]


def _start(src: Path, requests: list[list[str]]) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    proc.stdin.write(json.dumps(requests))
    proc.stdin.close()
    return proc


def _finish(proc: subprocess.Popen, src: Path) -> list[tuple]:
    output = proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"the run under {src} exited {proc.returncode}")
    imported, *runs = json.loads(output)
    if not Path(imported).resolve().is_relative_to(src):
        raise RuntimeError(f"the run under {src} imported quasilab from {imported}")

    def mask(text: str) -> str:
        return DURATION.sub(r"\1<masked>", text.replace(str(src), "<src>"))

    return [(code, mask(out), mask(err)) for code, out, err in runs]


def _first_difference(here: tuple, there: tuple) -> str:
    for stream, a, b in (("stdout", here[1], there[1]), ("stderr", here[2], there[2])):
        pairs = itertools.zip_longest(a.splitlines(), b.splitlines())
        for number, (line_here, line_there) in enumerate(pairs, start=1):
            if line_here != line_there:
                return f"{stream} line {number}: {line_here!r} here, {line_there!r} there"
    return "stdout and stderr agree"


def compare(other_src: Path, requests: list[list[str]], only_measured=()) -> tuple[list[str], int]:
    """Run the requests under this checkout's src and under ``other_src``;
    return the lines of the comparison and the number of requests that
    differ. The measured values of the ``verify-all`` checks named in
    ``only_measured`` are masked before the comparison."""
    trees = (SRC, Path(other_src).resolve())
    procs = [_start(src, requests) for src in trees]
    try:
        here, there = (_finish(proc, src) for proc, src in zip(procs, trees))
    finally:
        for proc in procs:
            if proc.poll() is None:  # left running when the other tree's run failed
                proc.kill()
            proc.stdout.close()
            proc.wait()
    lines, differ = [], 0
    patterns = _measured_patterns(only_measured)
    for argv, a, b in zip(requests, here, there):
        name = shlex.join(argv)
        moved = []
        if argv[0] == "verify-all":
            (a, masked_here), (b, masked_there) = _mask_measured(a, patterns), _mask_measured(b, patterns)
            pairs = itertools.zip_longest(masked_here, masked_there, fillvalue=("", "", None))
            moved = [f"    {s} {check} measured: {x} here, {y} there" for (s, check, x), (_, _, y) in pairs if x != y]
        if a == b:
            lines += [f"identical  {name}", *moved]
            continue
        differ += 1
        lines += [f"DIFFERS    {name}", f"    exit {a[0]} here, {b[0]} there", f"    {_first_difference(a, b)}"]
    lines.append(f"here: {trees[0]}, there: {trees[1]}")
    lines.append(f"{len(requests)} requests: {len(requests) - differ} identical, {differ} differ")
    return lines, differ


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare this checkout's CLI with another checkout's src/.")
    parser.add_argument("other_src", metavar="OTHER_SRC", type=Path)
    parser.add_argument(
        "--only-measured",
        nargs="+",
        default=[],
        metavar="CHECK",
        help="verify-all checks whose measured values may differ",
    )
    args = parser.parse_args(argv)
    lines, differ = compare(args.other_src, corpus(), args.only_measured)
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
