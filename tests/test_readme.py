"""The README's ``## Library`` examples run against the package as it is."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    section = section[:section.find("\n## ", 1)]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_snippets_run():
    blocks = _library_blocks()
    assert len(blocks) == 2
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().strip()
