"""Command line interface.

Subcommands:

    frames  -- derive frames along a curve and verify Gram tables + frame ODEs
    verify  -- run every verification check of a scene and print a summary
    mesh    -- sweep a scene to an OBJ mesh and optional curvature field file

Exit codes: 0 all checks pass, 1 usage/schema/I-O error or a grid too
large to allocate, 2 verification failure.  Every tolerance and step is
the library's (``curves`` for frames, ``verify`` and the scene's
``oracle_step`` for verify), the frames s range is sampled and checked like
a scene grid axis (``mesh.sample_axis``), and ``mesh.export`` refuses one
file for both outputs.

The argv is read in one pass against one option table, ``_COMMANDS``:
``--flag value``, ``--flag=value``, ``-n value`` or ``-n7``; a flag's value
may start with ``-`` (``--s-min -1``), the last of a repeated flag wins, and
long flags are never abbreviated.  ``-h``/``--help`` prints help made from
the table.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import numpy as np

from . import curves
from . import mesh as mesh_mod
from .canal import CanalError
from .curves import (GRAM_TOL, ODE_TOL, CurveClass, CurveError, builtin,
                     builtin_names, derive_frames, frame_residuals)
# perfbench's tracer wraps every binding of derive_frame, this one included
from .curves import derive_frame  # noqa: F401
from .expr import ExprError
from .minkowski import inner_rows
from .scene import SceneError, resolve_scene
from .verify import verify_scene

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2

#: Width ``lmcanal verify`` pads every check name to, so that a row's
#: layout does not depend on the other rows' names.
NAME_WIDTH = 44


class _Exit(Exception):
    """``(code, text)``: help (0, to stdout) or a usage error (1, stderr)."""


def _finite(text):
    """Option type: a finite float."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {text!r}")
    return x


_REQUIRED = object()
_HELP = ("-h", "--help")
_SCENE = "scene file or bundled scene name"

#: Each command's help, the attributes of a required, mutually exclusive
#: pair of its options (or none), and its options by attribute: (flags,
#: type, default or _REQUIRED, choices, help).
_COMMANDS = {
    "frames": ("verify curve frames", ("curve", "scene"), {
        "curve": (("--curve",), str, None, builtin_names(),
                  "builtin curve name"),
        "scene": (("--scene",), str, None, None, _SCENE),
        "s_min": (("--s-min",), _finite, -1.0, None, ""),
        "s_max": (("--s-max",), _finite, 1.0, None, ""),
        "samples": (("-n", "--samples"), int, 50, None, "")}),
    "verify": ("verify a scene against the oracle", (), {
        "scene": (("--scene",), str, _REQUIRED, None, _SCENE)}),
    "mesh": ("sweep a scene and export mesh/field", (), {
        "scene": (("--scene",), str, _REQUIRED, None, _SCENE),
        "out": (("--out",), str, _REQUIRED, None, "OBJ output path"),
        "field": (("--field",), str, None, None,
                  "optional curvature field output path"),
        "format": (("--format",), str, "csv", ("csv", "json"), "")}),
}
_CHOICE = "{" + ",".join(_COMMANDS) + "}"


def _value(kind, choices, text):
    """``kind(text)`` among ``choices``; a ValueError has argparse's text."""
    try:
        value = kind(text)
    except ValueError as e:
        raise ValueError(e if kind is _finite
                         else f"invalid int value: {text!r}") from None
    if choices and value not in choices:
        raise ValueError(f"invalid choice: {value!r} (choose from "
                         f"{', '.join(map(repr, choices))})")
    return value


def _usage(command):
    if command is None:
        return f"usage: lmcanal [-h] {_CHOICE} ..."
    _, pair, options = _COMMANDS[command]
    words = []
    for dest, (flags, _, default, choices, _) in options.items():
        word = f"{flags[0]} " + ("{" + ",".join(choices) + "}" if choices
                                 else dest.upper())
        words.append(word if default is _REQUIRED or dest in pair
                     else f"[{word}]")
    if pair:  # the pair's options come first
        words[:2] = [f"({words[0]} | {words[1]})"]
    return " ".join([f"usage: lmcanal {command} [-h]"] + words)


def _help(command):
    about, _, options = _COMMANDS.get(command, (
        "canal/tubular hypersurfaces in E^4_1", (), {}))
    rows = ([(", ".join(o[0]), o[4]) for o in options.values()] if command
            else [(name, spec[0]) for name, spec in _COMMANDS.items()])
    width = max(len(name) for name, _ in rows)
    return "\n".join([_usage(command), "", about, ""] + [
        f"  {name:<{width}}  {text}".rstrip() for name, text in rows])


def _error(command, message):
    prog = "lmcanal" if command is None else f"lmcanal {command}"
    return _Exit(EXIT_USAGE, f"{_usage(command)}\n{prog}: error: {message}")


def _parse(argv):
    """The namespace of ``argv``, read in one pass; raises ``_Exit`` for
    help and for a usage error, with argparse's messages."""
    if not argv:
        raise _error(None, f"the following arguments are required: {_CHOICE}")
    if argv[0] in _HELP:
        raise _Exit(EXIT_OK, _help(None))
    try:
        command = _value(str, _COMMANDS, argv[0])
    except ValueError as e:
        raise _error(None, f"argument {_CHOICE}: {e}") from None
    _, pair, options = _COMMANDS[command]
    by_flag = {flag: dest for dest, o in options.items() for flag in o[0]}
    values = {dest: o[2] for dest, o in options.items()}
    extra, tokens = [], iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            raise _Exit(EXIT_OK, _help(command))
        flag, eq, text = token.partition("=")
        if flag not in by_flag and token[:2] in by_flag:  # -n7
            flag, eq, text = token[:2], "=", token[2:]
        if flag not in by_flag:
            extra.append(token)
            continue
        dest = by_flag[flag]
        flags, kind, _, choices, _ = options[dest]
        other = pair[pair.index(dest) - 1] if dest in pair else None
        text = text if eq else next(tokens, None)
        try:
            if text is None or not eq and (
                    text in _HELP or text.partition("=")[0] in by_flag):
                raise ValueError("expected one argument")
            values[dest] = _value(kind, choices, text)
            if other and values[other] is not None:
                raise ValueError("not allowed with argument "
                                 + options[other][0][0])
        except ValueError as e:
            raise _error(command, f"argument {'/'.join(flags)}: {e}") from None
    if extra:
        raise _error(None, "unrecognized arguments: " + " ".join(extra))
    missing = [options[d][0][0] for d, v in values.items() if v is _REQUIRED]
    if missing:
        raise _error(command, "the following arguments are required: "
                     + ", ".join(missing))
    if pair and all(values[d] is None for d in pair):
        raise _error(command, "one of the arguments " + " ".join(
            options[d][0][0] for d in pair) + " is required")
    return SimpleNamespace(command=command, **values)


def cmd_frames(args) -> int:
    if args.curve:
        curve = builtin(args.curve)
    else:
        curve = resolve_scene(args.scene).curve
    s = np.array(mesh_mod.sample_axis("s", args.s_min, args.s_max,
                                      args.samples))
    h = curves.FRAME_STEP
    try:
        # one table: the samples, then their s + h and s - h neighbours
        frames = derive_frames(curve, np.concatenate([s, s + h, s - h]))
    except (CurveError, ExprError) as e:
        print(f"error: {e}")
        print("FAIL")
        return EXIT_VERIFY_FAILED
    gram, ode = frame_residuals(frames, curve.curve_class)
    # arclength normalization of null curves, unit spacelike tangent else
    f = (frames.f2 if curve.curve_class is CurveClass.NULL
         else frames.f1)[:len(s)]
    unit = np.abs(inner_rows(f, f) - 1.0)
    passed = (gram <= GRAM_TOL) & (ode <= ODE_TOL)
    for i, x in enumerate(s.tolist()):
        print(f"s={x:+.6f}  gram={gram[i]:.3e}  ode={ode[i]:.3e}  "
              f"k=({frames.k1[i]:.6g}, {frames.k2[i]:.6g}, "
              f"{frames.k3[i]:.6g})  {'PASS' if passed[i] else 'FAIL'}")
    print(f"worst: gram={gram.max():.3e} (tol {GRAM_TOL:g})  "
          f"ode={ode.max():.3e} (tol {ODE_TOL:g})  "
          f"normalization={unit.max():.3e}")
    ok = bool(passed.all())
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    report = verify_scene(resolve_scene(args.scene))
    print(f"scene {report.scene}: {report.points_checked} grid points "
          f"checked, {report.points_singular} singular skipped")
    for c in report.checks:
        value = "" if c.tol is None else f"{c.value:.3e} <= {c.tol:g}  "
        print(f"  {c.name:<{NAME_WIDTH}}  {value}"
              f"{'PASS' if c.passed else 'FAIL'}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_mesh(args) -> int:
    m = mesh_mod.sweep(resolve_scene(args.scene))
    try:
        mesh_mod.export(m, args.out, args.field or None, args.format)
    except OSError as e:
        print(f"lmcanal: I/O error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out}: {len(m.points)} vertices, "
          f"{len(m.quads)} quads, {m.n_singular} singular points")
    if args.field:
        print(f"wrote {args.field} ({args.format})")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except _Exit as e:
        code, text = e.args
        print(text, file=sys.stderr if code else sys.stdout)
        return code
    try:
        if args.command == "frames":
            return cmd_frames(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_mesh(args)
    except (SceneError, ExprError, CurveError, CanalError,
            mesh_mod.MeshError, MemoryError) as e:
        print(f"lmcanal: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
