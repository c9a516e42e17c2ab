"""README.md's one Library example runs as written, and its comments hold."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert len(ns["reps"]) == 5 and ns["reps"][0] == ns["rep"]
    assert ns["hits"].shape == (1000,) and ns["bands"].q1.shape == (2, 1000)
    assert abs(ns["cap"] - 4.0 * math.pi) <= 1e-12
