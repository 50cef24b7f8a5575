"""The README's library example runs and prints what its last comment
says, and every line of its CLI block exits 0."""

import contextlib
import io
import pathlib
import re
import shlex
from importlib import resources

from lmcanal.cli import main

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


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    # every documented form runs: --s-min -1, -n 50, a scene file path
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI"):].split("\n## ")[0]
    block, = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    lines = [line for line in block.splitlines()
             if line.startswith("lmcanal ")]
    assert len(lines) == 4
    doc = resources.files("lmcanal").joinpath("scenes", "pseudo-null-c1.json")
    (tmp_path / "my-scene.json").write_text(doc.read_text(encoding="utf-8"),
                                            encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().err == "", line
