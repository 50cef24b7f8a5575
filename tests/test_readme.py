"""The README's library example runs and prints what its last comment says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_comment():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    block, = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0],
                        flags=re.S)
    want = block.rstrip("\n").splitlines()[-1]
    assert want.startswith("# ")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == want[2:] + "\n"
