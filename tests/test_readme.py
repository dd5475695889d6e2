"""The README's Python examples run as written, so they cannot name an API
that no longer exists."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {"__name__": "readme"})
