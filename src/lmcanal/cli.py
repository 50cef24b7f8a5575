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
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import mesh as mesh_mod
from .canal import CanalError
from .curves import (GRAM_TOL, ODE_TOL, CurveClass, CurveError, builtin,
                     builtin_names, derive_frames, verify_frames)
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


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the CLI contract
    reserves 2 for verification failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite(text):
    """argparse type: a finite float."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return x


def _add_frames(sub):
    p = sub.add_parser("frames", help="verify curve frames")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", choices=builtin_names(),
                     help="builtin curve name")
    src.add_argument("--scene", help="scene file or bundled scene name")
    p.add_argument("--s-min", type=_finite, default=-1.0)
    p.add_argument("--s-max", type=_finite, default=1.0)
    p.add_argument("-n", "--samples", type=int, default=50)


def _add_verify(sub):
    p = sub.add_parser("verify", help="verify a scene against the oracle")
    p.add_argument("--scene", required=True,
                   help="scene file or bundled scene name")


def _add_mesh(sub):
    p = sub.add_parser("mesh", help="sweep a scene and export mesh/field")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True, help="OBJ output path")
    p.add_argument("--field", help="optional curvature field output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


#: The subcommands in help order, each with the function adding its parser.
_SUBCOMMANDS = {"frames": _add_frames, "verify": _add_verify,
                "mesh": _add_mesh}


def _build_parser() -> argparse.ArgumentParser:
    """The top parser with every subcommand parser.  prog and the
    subcommand metavar are given, so usage, help and errors read the same
    however the program is started."""
    top = _Parser(prog="lmcanal",
                  description="canal/tubular hypersurfaces in E^4_1")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser, prog="lmcanal",
                             metavar="{" + ",".join(_SUBCOMMANDS) + "}")
    for add in _SUBCOMMANDS.values():
        add(sub)
    return top


def cmd_frames(args) -> int:
    if args.curve:
        curve = builtin(args.curve)
    else:
        curve = resolve_scene(args.scene).curve
    s = np.array(mesh_mod.sample_axis("s", args.s_min, args.s_max,
                                      args.samples))
    try:
        frames = derive_frames(curve, s)
        rep = verify_frames(frames, curve, s)
    except (CurveError, ExprError) as e:
        print(f"error: {e}")
        print("FAIL")
        return EXIT_VERIFY_FAILED
    # arclength normalization of null curves, unit spacelike tangent else
    f = frames.f2 if curve.curve_class is CurveClass.NULL else frames.f1
    unit = np.abs(inner_rows(f, f) - 1.0)
    passed = rep.passed
    for i, x in enumerate(s.tolist()):
        print(f"s={x:+.6f}  gram={rep.gram_residual[i]:.3e}  "
              f"ode={rep.ode_residual[i]:.3e}  "
              f"k=({frames.k1[i]:.6g}, {frames.k2[i]:.6g}, "
              f"{frames.k3[i]:.6g})  {'PASS' if passed[i] else 'FAIL'}")
    print(f"worst: gram={rep.gram_residual.max():.3e} (tol {GRAM_TOL:g})  "
          f"ode={rep.ode_residual.max():.3e} (tol {ODE_TOL:g})  "
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
        print(f"mesh: I/O error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out}: {len(m.points)} vertices, "
          f"{len(m.quads)} quads, {m.n_singular} singular points")
    if args.field:
        print(f"wrote {args.field} ({args.format})")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
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
