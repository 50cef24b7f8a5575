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

from . import oracle
from .canal import (CurvaturePair, SingularPointError, Variant,
                    relation_residual, weingarten_residuals)
from .curves import derive_frame
from .minkowski import inner
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
    note: str = ""


@dataclass
class VerifyReport:
    scene: str
    checks: list = field(default_factory=list)
    points_checked: int = 0
    points_singular: int = 0

    def add(self, name, value, tol, note=""):
        self.checks.append(Check(name, value, tol, value <= tol, note))

    def add_flag(self, name, ok: bool, note=""):
        self.checks.append(Check(name, 0.0 if ok else 1.0, 0.5, ok, note))

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
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        s = rng.uniform(*grid.range_of("s"))
        t = rng.uniform(*grid.range_of("t"))
        w = rng.uniform(*grid.range_of("w"))
        pts.append((s, t, w))
    return pts


def check_envelope(scene: SceneSpec, report: VerifyReport, tol: Tolerances,
                   n_points: int = 200):
    """Membership on the defining quadric and normality of C - gamma,
    on random in-domain points."""
    fn = scene.point_fn()
    lam = scene.family.lam
    h = scene.oracle_step
    worst_m = worst_n = 0.0
    for (s, t, w) in _random_points(scene.grid, n_points, ENVELOPE_SEED):
        d = fn(s, t, w) - derive_frame(scene.curve, s).point
        r = scene.radius.jet(s)[0]
        worst_m = max(worst_m, abs(inner(d, d) - lam * r * r))
        d_s = (fn(s + h, t, w) - fn(s - h, t, w)) / (2.0 * h)
        worst_n = max(worst_n, abs(inner(d, d_s)))
    report.add("membership |<C-g,C-g> - lam r^2|", worst_m, tol.membership)
    report.add("normality |<C-g, C_s>|", worst_n, tol.normality)


def check_curvatures(scene: SceneSpec, report: VerifyReport, tol: Tolerances,
                     min_points: int = 1):
    """Closed-form K, H against the oracle on the scene grid, plus the K-H
    relation residual and the causal character of the normal."""
    fn = scene.point_fn()
    fam = scene.family
    gauge = closed_form_gauge(fam.variant)
    worst_k = worst_h = worst_rel = 0.0
    eps_ok = True
    n_ok = n_sing = 0
    k_pass = h_pass = True
    is_canal = fam.variant in (Variant.C1, Variant.C2, Variant.C3,
                               Variant.C4, Variant.C5)
    for (s, t, w) in scene.grid.points3d():
        r_jet = scene.radius.jet(s)
        try:
            closed = scene.closed_pair(s, t, w)
            jet = oracle.numeric_jet(fn, s, t, w, scene.oracle_step)
            forms = oracle.fundamental_forms(jet)
            numeric = oracle.curvatures_numeric(forms)
        except (SingularPointError, oracle.DegenerateTangentError,
                oracle.SingularMetricError):
            n_sing += 1
            continue
        # singular-set policy: skip where det[g] is tiny at local scale
        g_scale = max(1.0, max(abs(x) for row in forms.g for x in row)) ** 3
        if abs(forms.detg) <= 1e-10 * g_scale:
            n_sing += 1
            continue
        if forms.eps != fam.lam:
            eps_ok = False
        radial = jet.point - derive_frame(scene.curve, s).point
        flip = gauge * (1 if fam.lam * inner(forms.normal, radial) > 0 else -1)
        res = oracle.compare(closed,
                             CurvaturePair(flip * numeric.K, flip * numeric.H),
                             tol.rel, tol.abs)
        worst_k = max(worst_k, res.k_error)
        worst_h = max(worst_h, res.h_error)
        k_pass = k_pass and res.k_ok
        h_pass = h_pass and res.h_ok
        if is_canal:
            worst_rel = max(worst_rel,
                            abs(relation_residual(closed, r_jet[0], fam)))
        n_ok += 1
    report.points_checked = n_ok
    report.points_singular = n_sing
    report.add_flag(f"K closed vs oracle (worst err {worst_k:.2e})", k_pass)
    report.add_flag(f"H closed vs oracle (worst err {worst_h:.2e})", h_pass)
    report.add_flag(f"nonsingular points >= {min_points} (got {n_ok})",
                    n_ok >= min_points)
    if is_canal:
        report.add("K-H relation |3H - r^2 K +/- 2/r|", worst_rel, tol.relation)
    report.add_flag(f"causal character eps == {fam.lam}", eps_ok)


def check_epsilon_only(scene: SceneSpec, report: VerifyReport):
    """Causal character for families without closed forms (null centers)."""
    fn = scene.point_fn()
    eps_ok = True
    for (s, t, w) in _random_points(scene.grid, EPSILON_POINTS, EPSILON_SEED):
        try:
            forms = oracle.fundamental_forms(
                oracle.numeric_jet(fn, s, t, w, scene.oracle_step))
        except oracle.DegenerateTangentError:
            continue
        if forms.eps != scene.family.lam:
            eps_ok = False
    report.add_flag(f"causal character eps == {scene.family.lam}", eps_ok)


def check_weingarten(scene: SceneSpec, report: VerifyReport, tol: Tolerances):
    """Mixed-Jacobian residuals of (H, K) for tubular variants."""
    grid, n_grid = scene.grid, WEINGARTEN_GRID

    def pts():
        for i in range(n_grid):
            for j in range(n_grid):
                for k in range(n_grid):
                    yield (_lerp(grid.range_of("s"), i, n_grid),
                           _lerp(grid.range_of("t"), j, n_grid),
                           _lerp(grid.range_of("w"), k, n_grid))

    rep = weingarten_residuals(scene.family, scene.curve, scene.radius,
                               scene.shape, pts())
    report.add("Weingarten |H_s K_t - H_t K_s|", rep.st, tol.weingarten)
    report.add("Weingarten |H_s K_w - H_w K_s|", rep.sw, tol.weingarten)
    report.add("Weingarten |H_t K_w - H_w K_t|", rep.tw, tol.weingarten)


def _lerp(rng, i, n):
    lo, hi = rng
    return lo + (hi - lo) * i / (n - 1)


def verify_scene(scene: SceneSpec, tol: Tolerances = Tolerances(),
                 min_points: int = 1, weingarten: bool = True,
                 envelope_points: int = 200) -> VerifyReport:
    """Run every check applicable to the scene's family."""
    report = VerifyReport(scene.name)
    check_envelope(scene, report, tol, n_points=envelope_points)
    if scene.family.variant.is_null_variant:
        check_epsilon_only(scene, report)
    else:
        check_curvatures(scene, report, tol, min_points=min_points)
        if weingarten and scene.family.variant.is_tubular:
            check_weingarten(scene, report, tol)
    return report
