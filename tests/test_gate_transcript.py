"""The regression gate's transcript: ``lmcanal verify`` stdout and exit
code of the 21 gate scenes, compared byte for byte with
``tests/data/gate_verify.txt``.

Each scene contributes its stdout followed by a line ``exit <code>``.  The
residuals are printed to four digits, so the transcript pins the kernel's
and the oracle's results, not only the verdicts.  To regenerate it after an
intended change of results:

    PYTHONPATH=src python tests/test_gate_transcript.py > tests/data/gate_verify.txt
"""

import contextlib
import io
import pathlib

from lmcanal.cli import main

CLASSES = ("pseudo-null", "partially-null")
GATE_SCENES = ([f"{c}-c{k}" for c in CLASSES for k in range(1, 6)]
               + [f"{c}-t{k}" for c in CLASSES for k in range(1, 5)]
               + ["null-c1", "null-c2", "null-t1"])
GOLDEN = pathlib.Path(__file__).parent / "data" / "gate_verify.txt"


def gate_transcript() -> str:
    out = io.StringIO()
    for name in GATE_SCENES:
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--scene", name])
        out.write(f"exit {code}\n")
    return out.getvalue()


def test_gate_transcript_is_unchanged():
    got = gate_transcript().splitlines(keepends=True)
    want = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    assert got == want


if __name__ == "__main__":
    print(gate_transcript(), end="")
