"""The README's library examples run as written.

The ```python blocks of its "Library usage" section run in order, in one
namespace, as a reader pasting them into one session would run them.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_blocks_run_in_one_namespace():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library usage\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)
    assert blocks, "no python block in the Library usage section"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
