"""Scene verification: envelope identities, closed-form-vs-oracle curvature
agreement, K-H relations, causal character and Weingarten residuals.

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

import random
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .canal import (CurvaturePair, Variant, relation_residual,
                    weingarten_residuals)
from .minkowski import inner_rows
from .scene import SceneSpec

#: Sign relating each variant's closed-form normal to the radial direction.
CLOSED_FORM_NORMAL_GAUGE = {Variant.C2: -1, Variant.T2: -1}
#: Fixed sampling: seeds of the envelope and eps-only random points, the
#: eps-only point count and the Weingarten grid's points per axis.
ENVELOPE_SEED = 20240915
EPSILON_SEED = 77
EPSILON_POINTS = 60
WEINGARTEN_GRID = 20


def closed_form_gauge(variant: Variant) -> int:
    return CLOSED_FORM_NORMAL_GAUGE.get(variant, 1)


@dataclass(frozen=True)
class Check:
    """One verification row: a named residual against its tolerance."""

    name: str
    value: float
    tol: float
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
        self.checks.append(Check(name, 0.0 if ok else 1.0, 0.5, ok))

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


def _random_points(grid, n, seed):
    """n seeded uniform draws in the grid box, as (s, t, w) arrays."""
    rng = random.Random(seed)
    draws = [rng.uniform(*grid.range_of(axis))
             for _ in range(n) for axis in ("s", "t", "w")]
    return np.array(draws, dtype=float).reshape(-1, 3).T


def _worst(values) -> float:
    """Largest value, 0.0 for none; NaNs are skipped like max() skips them
    after a number."""
    return float(np.fmax.reduce(values, initial=0.0))


def check_envelope(scene: SceneSpec, report: VerifyReport, tol: Tolerances,
                   n_points: int = 200):
    """Membership on the defining quadric and normality of C - gamma,
    on random in-domain points; at least one point is required."""
    if n_points < 1:
        raise ValueError(f"the envelope check needs at least one point, "
                         f"got {n_points}")
    s, t, w = _random_points(scene.grid, n_points, ENVELOPE_SEED)
    h = scene.oracle_step
    n = len(s)
    fld = scene.field(np.concatenate([s, s + h, s - h]), np.tile(t, 3),
                      np.tile(w, 3))
    point, plus, minus = fld.points.reshape(3, n, 4)
    d = point - fld.center[:n]
    r = fld.r[:n]
    d_s = (plus - minus) / (2.0 * h)
    worst_m = _worst(np.abs(inner_rows(d, d) - scene.family.lam * r * r))
    worst_n = _worst(np.abs(inner_rows(d, d_s)))
    report.add("membership |<C-g,C-g> - lam r^2|", worst_m, tol.membership)
    report.add("normality |<C-g, C_s>|", worst_n, tol.normality)


def _grid_slab(scene: SceneSpec, s, t, w):
    """Closed forms, gauge-aligned oracle curvatures, radii and eps at the
    nonsingular points among (s, t, w), from one kernel call on their
    19-point stencils, and the number of singular points."""
    fam = scene.family
    n = len(s)
    h = scene.oracle_step
    fld = scene.field(*oracle.stencil(s, t, w, h))
    forms, degenerate = oracle.forms_batch(oracle.stencil_jets(fld.points, h))
    K, H, metric_singular = oracle.curvatures_batch(forms)
    # singular-set policy: also skip where det[g] is tiny at local scale
    largest = np.fmax(1.0, np.max(np.abs(forms.g), axis=(1, 2)))
    ok = ~(fld.singular[:n] | degenerate | metric_singular
           | (np.abs(forms.detg) <= 1e-10 * largest * largest * largest))
    radial = fld.points[:n] - fld.center[:n]
    flip = closed_form_gauge(fam.variant) * np.where(
        fam.lam * inner_rows(forms.normal, radial) > 0, 1, -1)
    values = (fld.K[:n][ok], fld.H[:n][ok], (flip * K)[ok], (flip * H)[ok],
              fld.r[:n][ok], forms.eps[ok])
    return values, n - int(ok.sum())


def check_curvatures(scene: SceneSpec, report: VerifyReport, tol: Tolerances,
                     min_points: int = 1):
    """Closed-form K, H against the oracle on the scene grid, plus the K-H
    relation residual and the causal character of the normal; at least
    one nonsingular point is required.  The grid is evaluated one s value
    at a time, which bounds the stencil temporaries."""
    if min_points < 1:
        raise ValueError(f"the curvature check needs at least one point, "
                         f"got min_points={min_points}")
    fam = scene.family
    grid = scene.grid
    t, w = (x.ravel() for x in np.meshgrid(grid.values_of("t"),
                                           grid.values_of("w"), indexing="ij"))
    slabs = [_grid_slab(scene, np.full(len(t), s), t, w)
             for s in grid.values_of("s")]
    k_closed, h_closed, k_oracle, h_oracle, r, eps = (
        np.concatenate(column) for column in zip(*(v for v, _ in slabs)))
    closed = CurvaturePair(k_closed, h_closed)
    res = oracle.compare(closed, CurvaturePair(k_oracle, h_oracle),
                         tol.rel, tol.abs)
    n_ok = len(r)
    report.points_checked = n_ok
    report.points_singular = sum(n for _, n in slabs)
    for name, err, ok in (("K", res.k_error, res.k_ok),
                          ("H", res.h_error, res.h_ok)):
        report.add_flag(f"{name} closed vs oracle (worst err "
                        f"{_worst(err):.2e})", bool(np.all(ok)))
    report.add_flag(f"nonsingular points >= {min_points} (got {n_ok})",
                    n_ok >= min_points)
    if fam.variant in (Variant.C1, Variant.C2, Variant.C3, Variant.C4,
                       Variant.C5):
        rel = relation_residual(closed, r, fam)
        report.add("K-H relation |3H - r^2 K +/- 2/r|", _worst(np.abs(rel)),
                   tol.relation)
    report.add_flag(f"causal character eps == {fam.lam}",
                    bool(np.all(eps == fam.lam)))


def check_epsilon_only(scene: SceneSpec, report: VerifyReport):
    """Causal character for families without closed forms (null centers),
    on random points; fails if no point has a nondegenerate tangent frame."""
    lam = scene.family.lam
    h = scene.oracle_step
    fld = scene.field(*oracle.stencil(
        *_random_points(scene.grid, EPSILON_POINTS, EPSILON_SEED), h))
    forms, degenerate = oracle.forms_batch(oracle.stencil_jets(fld.points, h))
    n_ok = int(np.count_nonzero(~degenerate))
    report.add_flag(f"causal character eps == {lam}",
                    bool(np.all(forms.eps[~degenerate] == lam)))
    report.add_flag(f"causal character points >= 1 (got {n_ok})", n_ok >= 1)


def check_weingarten(scene: SceneSpec, report: VerifyReport, tol: Tolerances):
    """Mixed-Jacobian residuals of (H, K) for tubular variants on a
    WEINGARTEN_GRID^3 grid over the scene ranges; fails if every grid point
    is singular."""
    axes = [[_lerp(scene.grid.range_of(axis), i, WEINGARTEN_GRID)
             for i in range(WEINGARTEN_GRID)] for axis in ("s", "t", "w")]
    grid = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")],
                    axis=1)
    rep = weingarten_residuals(scene.family, scene.curve, scene.radius,
                               scene.shape, grid)
    report.add("Weingarten |H_s K_t - H_t K_s|", rep.st, tol.weingarten)
    report.add("Weingarten |H_s K_w - H_w K_s|", rep.sw, tol.weingarten)
    report.add("Weingarten |H_t K_w - H_w K_t|", rep.tw, tol.weingarten)
    report.add_flag(f"Weingarten points >= 1 (got {rep.points}, "
                    f"{rep.singular} singular)", rep.points >= 1)


def _lerp(rng, i, n):
    lo, hi = rng
    return lo + (hi - lo) * i / (n - 1)


def verify_scene(scene: SceneSpec, tol: Tolerances = Tolerances(),
                 min_points: int = 1, weingarten: bool = True,
                 envelope_points: int = 200) -> VerifyReport:
    """Run every check applicable to the scene's family."""
    if min_points < 1:
        raise ValueError(f"verify needs at least one point, got "
                         f"min_points={min_points}")
    report = VerifyReport(scene.name)
    check_envelope(scene, report, tol, n_points=envelope_points)
    if scene.family.variant.is_null_variant:
        check_epsilon_only(scene, report)
    else:
        check_curvatures(scene, report, tol, min_points=min_points)
        if weingarten and scene.family.variant.is_tubular:
            check_weingarten(scene, report, tol)
    return report
