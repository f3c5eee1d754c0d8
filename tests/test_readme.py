"""The library code in README.md runs on this tree.

Each ```python block of the README is executed in a fresh namespace, in
order, so a public name the README uses and the package dropped fails the
suite, as ``tests/test_bench_api.py`` does for the benchmark's reads.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_every_readme_python_block_runs():
    blocks = python_blocks(README.read_text())
    assert blocks, "README.md has no python block"
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {})
