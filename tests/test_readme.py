"""README's Python examples run as written, in order, in one namespace,
so a change to the API that the README does not follow fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    assert tuple(namespace["order"]) == ("a", "b", "c")
