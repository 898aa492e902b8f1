"""The README's library quick start runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})
    assert math.isfinite(float(capsys.readouterr().out))
