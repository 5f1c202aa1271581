"""The same-behaviour gate (tools/same_behaviour.py) on a slice of its
corpus: a tree agrees with itself, a changed message is named with the
request that shows it, and ``--only-measured`` lets the measured values of
the named verify-all checks, and of no others, differ."""

import importlib.util
import shlex
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_behaviour.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("same_behaviour", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def requests(gate):
    # a report, a rejection by a handler and one by the flag types
    wanted = {
        "pc-check --r 0,0,1.2 --format=csv",
        "highdim --d=3 --epsilon=600 --format=json",
        "pc-check --r=1,2 --format=text",
    }
    picked = [argv for argv in gate.corpus() if shlex.join(argv) in wanted]
    assert len(picked) == len(wanted)
    return picked


def test_a_tree_agrees_with_itself(gate, requests):
    lines, differ = gate.compare(gate.SRC, requests)
    assert differ == 0
    assert [line.split()[0] for line in lines[:-2]] == ["identical"] * len(requests)


def test_a_changed_message_names_its_request(gate, requests, tmp_path):
    other = tmp_path / "src"
    shutil.copytree(gate.SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "quasilab" / "cli.py"
    text = cli.read_text()
    message = "epsilon must be finite and at most {:g}"
    assert text.count(message) == 1
    cli.write_text(text.replace(message, "epsilon must be finite and not exceed {:g}"))
    lines, differ = gate.compare(other, requests)
    assert differ == 1
    assert "DIFFERS    highdim --d=3 --epsilon=600 --format=json" in lines
    assert "    exit 2 here, 2 there" in lines
    assert lines[-1] == f"{len(requests)} requests: {len(requests) - 1} identical, 1 differ"


MOVED = "6-perfect-discrimination/overlap-strictly-positive"


@pytest.fixture(scope="module")
def moved_tree(gate, tmp_path_factory):
    # a copy whose criterion 6 reports twice the least overlap: that check's
    # measured value moves, its verdict and everything else do not
    other = tmp_path_factory.mktemp("moved") / "src"
    shutil.copytree(gate.SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    acceptance = other / "quasilab" / "acceptance.py"
    text = acceptance.read_text()
    old = '"overlap-strictly-positive", overlap('
    assert text.count(old) == 1
    acceptance.write_text(text.replace(old, '"overlap-strictly-positive", 2 * overlap('))
    return other


@pytest.fixture(scope="module")
def verify_requests(gate):
    return [["verify-all", "--seed=0", f"--format={fmt}"] for fmt in gate.FORMATS]


def test_a_named_check_may_move_its_measured_value(gate, moved_tree, verify_requests):
    lines, differ = gate.compare(moved_tree, verify_requests, [MOVED])
    assert differ == 0
    # each format prints the pair; the check is not its criterion's worst,
    # so no criterion line on stderr shows it
    moved = [line.split() for line in lines if MOVED in line]
    assert [(words[0], words[2], words[4]) for words in moved] == [("stdout", "measured:", "here,")] * 3
    # there twice here, to the 12 digits of csv and text
    assert all(float(words[5]) == pytest.approx(2 * float(words[3]), rel=1e-11) for words in moved)


@pytest.mark.parametrize("only_measured", [[], ["6-perfect-discrimination/deterministic-detection"]])
def test_an_unnamed_check_may_not_move_its_measured_value(gate, moved_tree, verify_requests, only_measured):
    lines, differ = gate.compare(moved_tree, verify_requests, only_measured)
    assert differ == len(verify_requests)
    assert lines[-1] == f"{len(verify_requests)} requests: 0 identical, {len(verify_requests)} differ"
