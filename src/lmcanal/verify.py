"""Scene verification: envelope identities, closed-form-vs-oracle curvature
agreement, K-H relations, causal character and Weingarten residuals.

``grid_table`` evaluates a scene once on its grid in one stencil batch:
the field kernel's table stage runs once on the 3 n_s s values and the
9 n_t n_w (t, w) pairs of the oracle's 19-point stencils of all grid
points, the points are built on every stencil row and the closed forms on
the grid rows only, and the oracle runs once; the envelope, curvature and
causal-character checks are reductions over that table.

The closed curvature forms are stated relative to a choice of unit normal.
For almost all variants that choice is the radial direction (C - gamma)/r;
the C2/T2 forms are stated relative to its negative (consistently with the
sign of their K-H relation).  The oracle measures curvatures with
the cross-product normal of the parametrization, so before comparing, its
(K, H) pair is flipped to the closed form's gauge using the sign of
lambda * <N_oracle, C - gamma> times the variant gauge below.  eps = <N, N>
itself is gauge-independent and is compared against lambda directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle
from .canal import (CanalFamily, CurvaturePair, Variant, field_points,
                    field_rows, relation_residual, weingarten_residuals)
from .minkowski import inner_rows
from .scene import SceneSpec

#: Sign relating each variant's closed-form normal to the radial direction.
CLOSED_FORM_NORMAL_GAUGE = {Variant.C2: -1, Variant.T2: -1}
#: Points per axis of the Weingarten check's grid.
WEINGARTEN_GRID = 20


def closed_form_gauge(variant: Variant) -> int:
    return CLOSED_FORM_NORMAL_GAUGE.get(variant, 1)


@dataclass(frozen=True)
class Check:
    """One verification row: a named residual against its tolerance, or a
    pass/fail flag, which has no tolerance (``tol`` None)."""

    name: str
    value: float
    tol: float | None
    passed: bool


@dataclass
class VerifyReport:
    scene: str
    checks: list = field(default_factory=list)
    points_checked: int = 0
    points_singular: int = 0

    def add(self, name, value, tol):
        self.checks.append(Check(name, value, tol, value <= tol))

    def add_flag(self, name, ok: bool):
        self.checks.append(Check(name, 0.0 if ok else 1.0, None, ok))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class Tolerances:
    membership: float = 1e-9
    normality: float = 1e-5
    rel: float = 1e-4
    abs: float = 1e-6
    relation: float = 1e-9
    weingarten: float = 1e-6


@dataclass(frozen=True)
class GridTable:
    """One row per grid point of a scene, in grid order (s slowest)."""

    family: CanalFamily
    #: envelope residuals |<C-g, C-g> - lam r^2| and |<C-g, C_s>|
    membership: np.ndarray
    normality: np.ndarray
    #: the oracle normal's <N, N>; 0 where the tangent frame is degenerate
    eps: np.ndarray
    #: closed-form (NaN for null centers) and gauge-aligned oracle K, H
    k_closed: np.ndarray
    h_closed: np.ndarray
    k_oracle: np.ndarray
    h_oracle: np.ndarray
    r: np.ndarray
    nonsingular: np.ndarray


def _worst(values) -> float:
    """Largest value, 0.0 for none; NaNs are skipped like max() skips them
    after a number."""
    return float(np.fmax.reduce(values, initial=0.0))


def grid_table(scene: SceneSpec) -> GridTable:
    """The scene evaluated on its grid in one pass: the kernel's table stage
    runs once on the s values and (t, w) pairs of the oracle's 19-point
    stencils of all grid points (``oracle.grid_stencil``), the hypersurface
    points are built on every stencil row, the center points, radii and
    closed forms on the grid rows only (the stencil centers come first),
    and the oracle runs once on the grid."""
    grid = scene.grid
    fam = scene.family
    h = scene.oracle_step
    t, w = (x.ravel() for x in np.meshgrid(grid.values_of("t"),
                                           grid.values_of("w"), indexing="ij"))
    params, (s_ix, tw_ix) = oracle.grid_stencil(grid.values_of("s"), t, w, h)
    tables = scene.tables(*params)
    jet = oracle.stencil_jets(field_points(tables, s_ix, tw_ix), h)
    n = len(jet.point)
    center, r, k_closed, h_closed, singular = field_rows(tables, s_ix[:n],
                                                         tw_ix[:n])
    del s_ix, tw_ix  # stencil-sized, not needed by the oracle
    forms, degenerate = oracle.forms_batch(jet)
    K, H, metric_singular = oracle.curvatures_batch(forms)
    radial = jet.point - center
    flip = closed_form_gauge(fam.variant) * np.where(
        fam.lam * inner_rows(forms.normal, radial) > 0, 1, -1)
    if k_closed is None:
        k_closed = h_closed = np.full(n, np.nan)
    return GridTable(fam,
                     np.abs(inner_rows(radial, radial) - fam.lam * r * r),
                     np.abs(inner_rows(radial, jet.d_s)),
                     np.where(degenerate, 0, forms.eps),
                     k_closed, h_closed, flip * K, flip * H, r,
                     ~(singular | degenerate | metric_singular))


def check_envelope(table: GridTable, report: VerifyReport, tol: Tolerances):
    """Membership on the defining quadric and normality of C - gamma, with
    C_s from the oracle's central difference, at every grid point."""
    report.add("membership |<C-g,C-g> - lam r^2|", _worst(table.membership),
               tol.membership)
    report.add("normality |<C-g, C_s>|", _worst(table.normality),
               tol.normality)


def check_curvatures(table: GridTable, report: VerifyReport, tol: Tolerances,
                     min_points: int = 1):
    """Closed-form K, H against the oracle at the nonsingular grid points,
    plus the K-H relation residual and the causal character of the normal;
    at least one nonsingular point is required."""
    if min_points < 1:
        raise ValueError(f"the curvature check needs at least one point, "
                         f"got min_points={min_points}")
    fam = table.family
    ok = table.nonsingular
    closed = CurvaturePair(table.k_closed[ok], table.h_closed[ok])
    res = oracle.compare(closed, CurvaturePair(table.k_oracle[ok],
                                               table.h_oracle[ok]),
                         tol.rel, tol.abs)
    n_ok = int(np.count_nonzero(ok))
    report.points_checked = n_ok
    report.points_singular = len(ok) - n_ok
    for name, err, passed in (("K", res.k_error, res.k_ok),
                              ("H", res.h_error, res.h_ok)):
        report.add_flag(f"{name} closed vs oracle (worst err "
                        f"{_worst(err):.2e})", bool(np.all(passed)))
    report.add_flag(f"nonsingular points >= {min_points} (got {n_ok})",
                    n_ok >= min_points)
    if fam.variant in (Variant.C1, Variant.C2, Variant.C3, Variant.C4,
                       Variant.C5):
        rel = relation_residual(closed, table.r[ok], fam)
        report.add("K-H relation |3H - r^2 K +/- 2/r|", _worst(np.abs(rel)),
                   tol.relation)
    report.add_flag(f"causal character eps == {fam.lam}",
                    bool(np.all(table.eps[ok] == fam.lam)))


def check_epsilon_only(table: GridTable, report: VerifyReport):
    """Causal character for null-center families at the grid points; fails
    if no point has a nondegenerate tangent frame."""
    lam = table.family.lam
    eps = table.eps[table.eps != 0]
    n_ok = len(eps)
    report.add_flag(f"causal character eps == {lam}", bool(np.all(eps == lam)))
    report.add_flag(f"causal character points >= 1 (got {n_ok})", n_ok >= 1)


def check_weingarten(scene: SceneSpec, report: VerifyReport, tol: Tolerances):
    """Mixed-Jacobian residuals of (H, K) for tubular variants on a
    WEINGARTEN_GRID^3 grid over the scene ranges; fails if every grid point
    is singular."""
    fine = replace(scene.grid, n_s=WEINGARTEN_GRID, n_t=WEINGARTEN_GRID,
                   n_w=WEINGARTEN_GRID)
    rep = weingarten_residuals(scene.family, scene.curve, scene.radius,
                               scene.shape, *(fine.values_of(axis)
                                              for axis in ("s", "t", "w")))
    report.add("Weingarten |H_s K_t - H_t K_s|", rep.st, tol.weingarten)
    report.add("Weingarten |H_s K_w - H_w K_s|", rep.sw, tol.weingarten)
    report.add("Weingarten |H_t K_w - H_w K_t|", rep.tw, tol.weingarten)
    report.add_flag(f"Weingarten points >= 1 (got {rep.points}, "
                    f"{rep.singular} singular)", rep.points >= 1)


def verify_scene(scene: SceneSpec, tol: Tolerances = Tolerances(),
                 min_points: int = 1, weingarten: bool = True) -> VerifyReport:
    """Run every check applicable to the scene's family."""
    if min_points < 1:
        raise ValueError(f"verify needs at least one point, got "
                         f"min_points={min_points}")
    report = VerifyReport(scene.name)
    table = grid_table(scene)
    check_envelope(table, report, tol)
    if scene.family.variant.is_null_variant:
        check_epsilon_only(table, report)
    else:
        check_curvatures(table, report, tol, min_points=min_points)
        if weingarten and scene.family.variant.is_tubular:
            check_weingarten(scene, report, tol)
    return report
