"""The README's library tour runs as written."""

from pathlib import Path


def test_library_tour_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Library tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
