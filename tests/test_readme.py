"""The README's "Library use" block runs as written against this package."""

import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    exec(compile(block, f"{README.name} (Library use)", "exec"), {})
    tod_r, loss = capsys.readouterr().out.split()
    assert float(tod_r) > 0.0
    assert math.isfinite(float(loss)) and float(loss) > 0.0
