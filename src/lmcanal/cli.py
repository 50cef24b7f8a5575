"""Command line interface.

Subcommands:

    frames  -- derive frames along a curve and verify Gram tables + frame ODEs
    verify  -- run every verification check of a scene and print a summary
    mesh    -- sweep a scene to an OBJ mesh and optional curvature field file

Exit codes: 0 all checks pass, 1 usage/schema/I-O error, 2 verification
failure.  Tolerances are overridable by flags; defaults follow the kernel
modules.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import mesh as mesh_mod
from .canal import CanalError
from .curves import (CurveClass, CurveError, builtin, builtin_names,
                     derive_frames, verify_frames)
# perfbench's tracer wraps every binding of derive_frame, this one included
from .curves import derive_frame  # noqa: F401
from .expr import ExprError
from .minkowski import inner_rows
from .scene import SceneError, bundled_scene_names, resolve_scene
from .verify import Tolerances, verify_scene

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the CLI contract
    reserves 2 for verification failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite(kind, noun, positive=True):
    """argparse type: a finite ``kind``, above zero if ``positive``."""
    def parse(text):
        try:
            x = kind(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and (x > 0 or not positive)):
            raise argparse.ArgumentTypeError(
                f"expected a {noun}, got {text!r}")
        return x
    return parse


_POSITIVE = _finite(float, "positive number")
_COUNT = _finite(int, "positive integer")
_FINITE = _finite(float, "finite number", positive=False)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="lmcanal",
                  description="canal/tubular hypersurfaces in E^4_1")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("frames", help="verify curve frames")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", choices=builtin_names(),
                     help="builtin curve name")
    src.add_argument("--scene", help="scene file or bundled scene name")
    p.add_argument("--s-min", type=_FINITE, default=-1.0)
    p.add_argument("--s-max", type=_FINITE, default=1.0)
    p.add_argument("-n", "--samples", type=int, default=50)
    p.add_argument("--step", type=_POSITIVE, default=1e-4,
                   help="central-difference step for the frame ODE check")
    p.add_argument("--gram-tol", type=_POSITIVE, default=1e-8)
    p.add_argument("--ode-tol", type=_POSITIVE, default=1e-5)

    p = sub.add_parser("verify", help="verify a scene against the oracle")
    p.add_argument("--scene", required=True,
                   help="scene file or bundled scene name "
                        f"(bundled: {', '.join(bundled_scene_names() or ['-'])})")
    p.add_argument("--rel-tol", type=_POSITIVE, default=1e-4)
    p.add_argument("--abs-tol", type=_POSITIVE, default=1e-6)
    p.add_argument("--step", type=_POSITIVE, default=None,
                   help="override the scene's oracle step")
    p.add_argument("--min-points", type=_COUNT, default=1,
                   help="required number of nonsingular grid points")
    p.add_argument("--no-weingarten", action="store_true")

    p = sub.add_parser("mesh", help="sweep a scene and export mesh/field")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True, help="OBJ output path")
    p.add_argument("--field", help="optional curvature field output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return top


def cmd_frames(args) -> int:
    if args.curve:
        curve = builtin(args.curve)
    else:
        curve = resolve_scene(args.scene).curve
    if args.samples < 2 or not 0 < args.s_max - args.s_min < math.inf:
        print("frames: need s-min < s-max a finite distance apart and at "
              "least 2 samples", file=sys.stderr)
        return EXIT_USAGE
    n = args.samples
    s = args.s_min + (args.s_max - args.s_min) * np.arange(n) / (n - 1)
    try:
        frames = derive_frames(curve, s)
        rep = verify_frames(frames, curve, s, step=args.step,
                            gram_tol=args.gram_tol, ode_tol=args.ode_tol)
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
    print(f"worst: gram={rep.gram_residual.max():.3e} (tol {args.gram_tol:g})  "
          f"ode={rep.ode_residual.max():.3e} (tol {args.ode_tol:g})  "
          f"normalization={unit.max():.3e}")
    ok = bool(passed.all())
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    scene = resolve_scene(args.scene)
    if args.step is not None:
        from dataclasses import replace
        scene = replace(scene, oracle_step=args.step)
    tol = Tolerances(rel=args.rel_tol, abs=args.abs_tol)
    report = verify_scene(scene, tol, min_points=args.min_points,
                          weingarten=not args.no_weingarten)
    print(f"scene {report.scene}: {report.points_checked} grid points "
          f"checked, {report.points_singular} singular skipped")
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        if c.tol is None:
            print(f"  {c.name:<{width}}  {'PASS' if c.passed else 'FAIL'}")
        else:
            print(f"  {c.name:<{width}}  {c.value:.3e} <= {c.tol:g}  "
                  f"{'PASS' if c.passed else 'FAIL'}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _same_file(a: str, b: str) -> bool:
    """True when two paths name one file: the same real path, or an
    existing file reached through a hard link."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # either file does not exist yet
        return False


def cmd_mesh(args) -> int:
    if args.field and _same_file(args.field, args.out):
        print("mesh: --out and --field name the same file", file=sys.stderr)
        return EXIT_USAGE
    scene = resolve_scene(args.scene)
    grid = scene.grid
    if grid.fixed_axis is None:
        print("mesh: the scene grid has no fixed axis", file=sys.stderr)
        return EXIT_USAGE
    m = mesh_mod.sweep(scene, grid)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "frames":
            return cmd_frames(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_mesh(args)
    except (SceneError, ExprError, CurveError, CanalError,
            mesh_mod.MeshError) as e:
        print(f"lmcanal: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
