"""The frames transcript: ``lmcanal frames`` stdout and exit code of the
three builtin curves at default arguments, compared byte for byte with
``tests/data/frames_builtins.txt``.

Each curve contributes its stdout followed by a line ``exit <code>``.  The
Gram and ODE residuals are printed to four digits and the curvatures to
six, so the transcript pins the derived frames and their central
differences, not only the verdicts.  To regenerate it after an intended
change of results:

    PYTHONPATH=src python tests/test_frames_transcript.py > tests/data/frames_builtins.txt
"""

import contextlib
import io
import pathlib

from lmcanal.cli import main
from lmcanal.curves import builtin_names

GOLDEN = pathlib.Path(__file__).parent / "data" / "frames_builtins.txt"


def frames_transcript() -> str:
    out = io.StringIO()
    for name in builtin_names():
        with contextlib.redirect_stdout(out):
            code = main(["frames", "--curve", name])
        out.write(f"exit {code}\n")
    return out.getvalue()


def test_frames_transcript_is_unchanged():
    got = frames_transcript().splitlines(keepends=True)
    want = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    assert got == want


if __name__ == "__main__":
    print(frames_transcript(), end="")
