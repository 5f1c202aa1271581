"""The same-behaviour gate (tools/same_behaviour.py) on a slice of its
corpus: a tree agrees with itself, and a changed message is named with the
request that shows it."""

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
        "highdim --d=33 --epsilon=0.5 --format=json",
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
    assert text.count("dimension must be at most {}") == 1
    cli.write_text(text.replace("dimension must be at most {}", "dimension must not exceed {}"))
    lines, differ = gate.compare(other, requests)
    assert differ == 1
    assert "DIFFERS    highdim --d=33 --epsilon=0.5 --format=json" in lines
    assert "    exit 2 here, 2 there" in lines
    assert lines[-1] == f"{len(requests)} requests: {len(requests) - 1} identical, 1 differ"
