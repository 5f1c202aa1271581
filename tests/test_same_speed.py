"""The same-speed tool (tools/same_speed.py) on a slice of its paths: a
tree timed against itself, pair by pair, runs at its own speed, holds the
same transient peak of memory and has as many lines."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_speed.py"
SLICE = ["criterion_3", "to_operator", "quasi_state_16", "real_pairing"]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("same_speed", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_runs_at_its_own_speed(tool):
    imported = sys.modules["quasilab"]
    result = tool.compare(tool.SRC, pairs=15, only=SLICE)
    assert list(result) == SLICE
    for path, row in result.items():
        q1, median, q3 = row["ratio"]
        assert q1 <= median <= q3
        assert 0.8 <= median <= 1.25, (path, row)
        assert row["here_s"] > 0 and row["there_s"] > 0
        assert row["here_faults"] >= 0 and row["there_faults"] >= 0
        # one tree's code holds the same memory on either side
        assert row["here_peak_mb"] > 0 and row["here_peak_mb"] == pytest.approx(row["there_peak_mb"], rel=0.02, abs=0.01)
    # criterion 3 builds 10,000 qubit operators, 640 KB as one stack
    assert result["criterion_3"]["here_peak_mb"] > 0.64
    # the renamed copies are gone, and quasilab is the one imported before
    assert sys.modules["quasilab"] is imported
    assert not [name for name in sys.modules if name.startswith(("quasilab_here", "quasilab_there"))]


def test_every_path_runs_on_a_tree(tool, tmp_path):
    tree = tool.load_tree(tool.SRC, "quasilab_every_path", tmp_path)
    try:
        calls = tool.paths(tree)
        expected = ["run_all", *(f"criterion_{n}" for n in range(1, 10)), "cli_requests", "highdim_scan"]
        expected += ["real_pairing", "quasi_state_16", "to_operator", "pc_check", "min_eigenvalue", "chsh_experiment"]
        expected += ["build_box_1", "build_box_1000", "eigensystem_1", "eigensystem_1000", "discrimination_experiment_1"]
        assert list(calls) == expected
        for path in expected[10:]:  # run_all and the criteria are tier-1's own tests
            calls[path]()
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "quasilab_every_path"]:
            del sys.modules[name]


def test_the_footer_counts_both_trees_lines(tool, capsys, monkeypatch):
    for name, value in tool.PINNED.items():
        monkeypatch.setenv(name, value)  # main pins them; restored after the test
    assert tool.main([str(tool.SRC), "--pairs", "2", "--paths", "real_pairing"]) == 0
    lines = sum(path.read_text().count("\n") for path in (tool.SRC / "quasilab").glob("*.py"))
    assert lines > 0 and capsys.readouterr().out.splitlines()[-1] == f"src/ lines: here {lines}, there {lines}"
