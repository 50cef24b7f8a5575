"""Scene verification: envelope identities, closed-form-vs-oracle curvature
agreement, the K-H relation on the oracle and causal character.

A scene is verified from one table stage of the field kernel
(``scene_tables``): one ``field_tables`` call on the 3 n_s s values and the
9 n_t n_w (t, w) pairs of the oracle's 19-point stencils of all grid
points, with the stencil's (19, n_s, 1) and (19, 1, n_t n_w) index blocks.
Every check reads the grid's points through these blocks.  ``grid_table``
builds the points on every stencil row and the closed forms on row 0 (the
grid points), and runs the oracle once; the envelope, curvature and
causal-character checks are reductions over its table.  Every family
with closed forms, canal and tubular alike, takes the same path.  The
closed forms take H from K by the K-H relation 3H - r^2 K + sigma 2/r = 0,
so the relation is checked on the oracle's K and H, which do not hold it
by construction.  It is the tubular variants' characterization too: with
r constant it makes every mixed Jacobian H_x K_y - H_y K_x vanish.

The closed curvature forms are stated relative to a choice of unit normal.
For almost all variants that choice is the radial direction (C - gamma)/r;
the C2/T2 forms are stated relative to its negative
(``canal.closed_form_gauge``).  The oracle measures curvatures with the
cross-product normal of the parametrization, so before comparing, its
(K, H) pair is flipped to the closed form's gauge using the sign of
lambda * <N_oracle, C - gamma> times the variant gauge.  eps = <N, N>
itself is gauge-independent and is compared against lambda directly.

Every row is a worst residual against its tolerance, except the one
guard that the check covered at least one grid point.  A NaN residual
is the worst and fails its row.  Every verdict is set by the module
tolerances below, read at call time, and by the scene's ``oracle_step``,
the step of the oracle's central differences; no check takes a
tolerance or a step.  The residual arithmetic runs with floating-point
warnings off, as the kernel's does: an overflow shows as an inf or NaN
residual in its row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import oracle
from .canal import (CanalFamily, FieldTables, closed_form_gauge,
                    field_points, field_rows, weingarten_residuals)
from .minkowski import inner_rows
from .scene import SceneSpec

#: Envelope residuals |<C-g, C-g> - lam r^2| and |<C-g, C_s>|.
MEMBERSHIP_TOL = 1e-9
NORMALITY_TOL = 1e-5
#: Mixed-Jacobian residuals |H_x K_y - H_y K_x| of ``check_weingarten``,
#: which ``verify_scene`` does not call.
WEINGARTEN_TOL = 1e-6
#: Relative and absolute tolerance of the closed-vs-oracle comparison
#: (see ``normalized_error``).
REL_TOL = 1e-4
ABS_TOL = 1e-6


def normalized_error(a, b):
    """|a - b| / (ABS_TOL + REL_TOL max(|a|, |b|)) of floats or arrays: the
    closed-vs-oracle error in units of its mixed bound, within tolerance
    at <= 1.

    For finite a and b the quotient is <= 1 exactly when err <= bound:
    bound >= ABS_TOL is a normal float, and for floats err > bound the
    exact quotient exceeds 1 by more than half a unit in the last place
    of 1, so it never rounds down to 1.  The one edge is an overflow to
    infinity: an infinite a or b makes err and bound both inf, which
    err <= bound passes and err / bound (NaN) fails."""
    return np.abs(a - b) / (ABS_TOL + REL_TOL * np.maximum(np.abs(a),
                                                            np.abs(b)))


class Check(NamedTuple):
    """One verification row: a named residual against its tolerance, or a
    pass/fail flag, which has no tolerance (``tol`` None)."""

    name: str
    value: float
    tol: float | None
    passed: bool


class VerifyReport:
    """A scene's check rows, in order, and the grid points its curvature
    checks covered and skipped as singular."""

    __slots__ = ("scene", "checks", "points_checked", "points_singular")

    def __init__(self, scene: str, checks: list | None = None,
                 points_checked: int = 0, points_singular: int = 0):
        self.scene = scene
        self.checks = [] if checks is None else checks
        self.points_checked = points_checked
        self.points_singular = points_singular

    def __eq__(self, other):
        if other.__class__ is not VerifyReport:
            return NotImplemented
        return ([getattr(self, k) for k in self.__slots__]
                == [getattr(other, k) for k in self.__slots__])

    def add(self, name, value, tol):
        self.checks.append(Check(name, value, tol, value <= tol))

    def add_flag(self, name, ok: bool):
        self.checks.append(Check(name, 0.0 if ok else 1.0, None, ok))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class GridTable(NamedTuple):
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
    #: the points the curvature checks cover: closed forms defined, tangent
    #: frame nondegenerate, metric regular and the normal finite
    nonsingular: np.ndarray


def _worst(values) -> float:
    """Largest value, 0.0 for none, NaN if any value is NaN."""
    return float(np.max(values, initial=0.0))


class SceneTables(NamedTuple):
    """A scene's one table stage and the index blocks each check reads of
    it (see ``scene_tables``)."""

    field_tables: FieldTables
    #: the oracle step and the (19, n_s, 1), (19, 1, n_t n_w) index blocks
    #: of the grid's stencils (``oracle.grid_stencil``)
    step: float
    grid: tuple


def scene_tables(scene: SceneSpec) -> SceneTables:
    """The scene's one ``field_tables`` call, on the s values and (t, w)
    pairs of the oracle's stencils of every grid point of
    ``scene.grid.axes()`` at the scene's oracle step, with the stencil's
    index blocks into them.  Every check reads the tables through these
    blocks: the oracle all 19 rows and the closed forms row 0."""
    axes, blocks = oracle.grid_stencil(*scene.grid.axes(), scene.oracle_step)
    return SceneTables(scene.tables(*axes), scene.oracle_step, blocks)


def grid_table(tables: SceneTables) -> GridTable:
    """The scene evaluated on its grid in one pass over the grid blocks of
    its tables: the hypersurface points on every stencil row, the center
    points, radii and closed forms on the grid rows only (block 0, the
    stencil centers), and the oracle once on the grid."""
    ft = tables.field_tables
    fam = ft.family
    s_ix, tw_ix = tables.grid
    n_s, n_tw = s_ix.shape[1], tw_ix.shape[2]
    points = field_points(ft, s_ix, tw_ix)
    center, r, k_closed, h_closed, singular = field_rows(ft, s_ix[0],
                                                         tw_ix[0])
    if k_closed is None:
        k_closed = h_closed = np.full(singular.size, np.nan)
    with np.errstate(all="ignore"):
        jet = oracle.stencil_jets(points, tables.step)
        forms, degenerate = oracle.forms_batch(jet)
        K, H, metric_singular = oracle.curvatures_batch(forms)
        radial = (jet.point.reshape(n_s, n_tw, 4) - center).reshape(-1, 4)
        r = np.broadcast_to(r, (n_s, n_tw)).ravel()
        flip = closed_form_gauge(fam.variant) * np.where(
            fam.lam * inner_rows(forms.normal, radial) > 0, 1, -1)
        membership = np.abs(inner_rows(radial, radial) - fam.lam * r * r)
        normality = np.abs(inner_rows(radial, jet.d_s))
    return GridTable(fam, membership, normality,
                     np.where(degenerate, 0, forms.eps),
                     k_closed.ravel(), h_closed.ravel(), flip * K, flip * H,
                     r, ~(singular.ravel() | degenerate | metric_singular
                          | ~np.isfinite(forms.eps)))


def check_envelope(table: GridTable, report: VerifyReport):
    """Membership on the defining quadric and normality of C - gamma, with
    C_s from the oracle's central difference, at every grid point."""
    report.add("membership |<C-g,C-g> - lam r^2|", _worst(table.membership),
               MEMBERSHIP_TOL)
    report.add("normality |<C-g, C_s>|", _worst(table.normality),
               NORMALITY_TOL)


def _count_points(report: VerifyReport, checked) -> None:
    """Record the grid points a check covers (the mask ``checked``) and
    the rest as singular, and add the guard that there is at least one."""
    n = int(np.count_nonzero(checked))
    report.points_checked = n
    report.points_singular = checked.size - n
    report.add_flag(f"grid points checked >= 1 (got {n})", n >= 1)


def _add_causal(report: VerifyReport, eps, lam: int) -> None:
    report.add(f"causal character |eps - lam| (lam {lam:+d})",
               _worst(np.abs(eps - lam)), 0.0)


def check_curvatures(table: GridTable, report: VerifyReport):
    """Three rows at the nonsingular grid points, each the worst
    ``normalized_error`` against 1: the closed-form K and H against the
    oracle's, and the oracle's 3H against r^2 K - sigma 2/r (the K-H
    relation; sigma is the variant's sign, its gauge times lambda), which
    is the tubular characterization, a linear Weingarten relation, checked
    on the oracle.  Then the causal character of the normal there."""
    ok = table.nonsingular
    _count_points(report, ok)
    fam = table.family
    k, h, r = table.k_oracle[ok], table.h_oracle[ok], table.r[ok]
    sigma = closed_form_gauge(fam.variant) * fam.lam
    with np.errstate(all="ignore"):
        for name, a, b in (
                ("K closed vs oracle |dK|/(abs + rel max|K|)",
                 table.k_closed[ok], k),
                ("H closed vs oracle |dH|/(abs + rel max|H|)",
                 table.h_closed[ok], h),
                ("K-H relation on oracle: 3H vs r^2 K -/+ 2/r",
                 3.0 * h, r * r * k - sigma * 2.0 / r)):
            report.add(name, _worst(normalized_error(a, b)), 1.0)
    _add_causal(report, table.eps[ok], fam.lam)


def check_epsilon_only(table: GridTable, report: VerifyReport):
    """Causal character for null-center families at the grid points with a
    nondegenerate tangent frame and a finite normal (eps finite and not
    0), which are the points it counts as checked."""
    checked = np.isfinite(table.eps) & (table.eps != 0)
    _count_points(report, checked)
    _add_causal(report, table.eps[checked], table.family.lam)


def check_weingarten(tables: SceneTables, report: VerifyReport):
    """Mixed-Jacobian residuals of (H, K) for tubular variants at the grid
    points, from central differences of the closed forms on stencil rows
    1-6 of the tables' grid blocks; fails if every grid point is
    singular.

    ``verify_scene`` does not call this: the K-H relation row of
    ``check_curvatures`` checks the tubular characterization on the
    oracle, and the closed forms, whose H is taken from K by that
    relation, pass these rows by construction.  It stays only because
    the benchmark's tracer (``perfbench/tracer.py``) binds it by name; it
    goes when the tracer stops doing so (ROADMAP.md)."""
    s_ix, tw_ix = tables.grid
    rep = weingarten_residuals(tables.field_tables, s_ix[1:7], tw_ix[1:7],
                               tables.step)
    report.add("Weingarten |H_s K_t - H_t K_s|", rep.st, WEINGARTEN_TOL)
    report.add("Weingarten |H_s K_w - H_w K_s|", rep.sw, WEINGARTEN_TOL)
    report.add("Weingarten |H_t K_w - H_w K_t|", rep.tw, WEINGARTEN_TOL)
    report.add_flag(f"Weingarten points >= 1 (got {rep.points}, "
                    f"{rep.singular} singular)", rep.points >= 1)


def verify_scene(scene: SceneSpec) -> VerifyReport:
    """Run every check applicable to the scene's family, all from one
    table stage (``scene_tables``) and one pass over its grid
    (``grid_table``)."""
    report = VerifyReport(scene.name)
    table = grid_table(scene_tables(scene))
    check_envelope(table, report)
    if scene.family.variant.is_null_variant:
        check_epsilon_only(table, report)
    else:
        check_curvatures(table, report)
    return report
