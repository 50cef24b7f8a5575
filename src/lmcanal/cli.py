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
import sys

from . import mesh as mesh_mod
from .canal import CanalError
from .curves import (CurveClass, CurveError, builtin, builtin_names,
                     derive_frame, verify_frame)
from .expr import ExprError
from .minkowski import Vec4, inner
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


def _positive(kind, noun):
    """argparse type: a finite value of ``kind`` above zero."""
    def parse(text):
        try:
            x = kind(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and x > 0):
            raise argparse.ArgumentTypeError(
                f"expected a positive {noun}, got {text!r}")
        return x
    return parse


_POSITIVE = _positive(float, "number")
_COUNT = _positive(int, "integer")


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
    p.add_argument("--s-min", type=float, default=-1.0)
    p.add_argument("--s-max", type=float, default=1.0)
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
    p.add_argument("--min-points", type=int, default=1,
                   help="required number of nonsingular grid points")
    p.add_argument("--envelope-points", type=_COUNT, default=200)
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
    if args.samples < 2 or not args.s_min < args.s_max:
        print("frames: need s-min < s-max and at least 2 samples",
              file=sys.stderr)
        return EXIT_USAGE
    worst_gram = worst_ode = worst_unit = 0.0
    failed = False
    for i in range(args.samples):
        s = args.s_min + (args.s_max - args.s_min) * i / (args.samples - 1)
        try:
            frame = derive_frame(curve, s)
            rep = verify_frame(frame, curve.curve_class, curve,
                               step=args.step, gram_tol=args.gram_tol,
                               ode_tol=args.ode_tol)
        except (CurveError, ExprError) as e:
            print(f"s={s:+.6f}  error: {e}")
            failed = True
            continue
        jets = curve.jets(s)
        d1 = Vec4(*(j.d1 for j in jets))
        d2 = Vec4(*(j.d2 for j in jets))
        if curve.curve_class is CurveClass.NULL:
            unit_res = abs(inner(d2, d2) - 1.0)  # arclength normalization
        else:
            unit_res = abs(inner(d1, d1) - 1.0)  # unit spacelike tangent
        worst_unit = max(worst_unit, unit_res)
        worst_gram = max(worst_gram, rep.gram_residual)
        worst_ode = max(worst_ode, rep.ode_residual)
        failed = failed or not rep.passed
        print(f"s={s:+.6f}  gram={rep.gram_residual:.3e}  "
              f"ode={rep.ode_residual:.3e}  "
              f"k=({frame.k1:.6g}, {frame.k2:.6g}, {frame.k3:.6g})  "
              f"{'PASS' if rep.passed else 'FAIL'}")
    print(f"worst: gram={worst_gram:.3e} (tol {args.gram_tol:g})  "
          f"ode={worst_ode:.3e} (tol {args.ode_tol:g})  "
          f"normalization={worst_unit:.3e}")
    print("FAIL" if failed else "PASS")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_verify(args) -> int:
    scene = resolve_scene(args.scene)
    if args.step is not None:
        from dataclasses import replace
        scene = replace(scene, oracle_step=args.step)
    tol = Tolerances(rel=args.rel_tol, abs=args.abs_tol)
    report = verify_scene(scene, tol, min_points=args.min_points,
                          weingarten=not args.no_weingarten,
                          envelope_points=args.envelope_points)
    print(f"scene {report.scene}: {report.points_checked} grid points "
          f"checked, {report.points_singular} singular skipped")
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        if c.tol == 0.5:  # boolean flag rows
            print(f"  {c.name:<{width}}  {'PASS' if c.passed else 'FAIL'}")
        else:
            print(f"  {c.name:<{width}}  {c.value:.3e} <= {c.tol:g}  "
                  f"{'PASS' if c.passed else 'FAIL'}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_mesh(args) -> int:
    scene = resolve_scene(args.scene)
    grid = scene.grid
    if grid.fixed_axis is None:
        print("mesh: the scene grid has no fixed axis", file=sys.stderr)
        return EXIT_USAGE
    m = mesh_mod.sweep(scene, grid)
    try:
        mesh_mod.export_obj(m, args.out)
        if args.field:
            mesh_mod.export_field(m, args.field, args.format)
    except OSError as e:
        print(f"mesh: I/O error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out}: {len(m.vertices)} vertices, "
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
