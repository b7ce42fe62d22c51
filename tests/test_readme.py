"""The README's library example runs and its comments hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs_as_its_comments_say(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    block = blocks[0]
    assert "# 8 vertices, 16 arcs" in block
    assert "# two classes: adjacent, commuting" in block
    assert "# Verdict.PASS" in block
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "Verdict.PASS\n"
    graph, partition = namespace["graph"], namespace["partition"]
    assert len(graph.vertices) == 8 and len(graph.arcs) == 16
    assert len(partition.classes) == 2
