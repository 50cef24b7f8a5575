"""Canal and tubular hypersurface families and their closed-form curvatures.

A canal hypersurface is the envelope of a one-parameter family of pseudo
hyperspheres (lambda = +1) or pseudo hyperbolic hyperspheres (lambda = -1)
centered on a curve gamma(s) with radius r(s).  Writing the offset from the
center in the moving frame,

    C(s,t,w) - gamma(s) = a1*F1 + a2*F2 + a3*F3 + a4*F4,

membership on the quadric and normality of C - gamma force one coefficient
to equal -lambda*r*r' (a1 for pseudo null and partially null centers, a3
for null centers) and constrain the quadratic form of the rest.  Each
variant below is one solution family of that constraint; tubular variants
are the constant-radius specializations.

Closed-form Gaussian/mean curvature pairs exist for the ten pseudo null /
partially null variants and the eight tubular ones; null-center families
have no closed forms and are covered by the numerical oracle only.  The
closed forms are transcribed for the worked branch (+1); for branch -1 the
radial part of the surface flips sign, which enters the formulas only
through the odd powers of the fiber trig value, so the branch sign is
folded into that value (validated against the oracle in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import expr
from .curves import CurveClass, CurveSpec, FrenetData, derive_frame
from .minkowski import Vec4

#: Scaled threshold below which a closed-form denominator counts as singular.
DENOM_TOL = 1e-12
#: Tubular variants require |r'| below this.
CONST_RADIUS_TOL = 1e-9
#: Central-difference step of the Weingarten mixed Jacobians.
WEINGARTEN_STEP = 1e-4


class CanalError(Exception):
    """Base class for canal construction errors."""


class RegimeError(CanalError):
    """A side condition of the variant is violated (r'^2 out of range,
    nonpositive radius, vanishing shape denominator, rho^2 < 0)."""


class UnsupportedFamilyError(CanalError):
    """The requested operation has no closed form for this family."""


class SingularPointError(CanalError):
    """A closed-form denominator vanishes at the evaluation point."""


class Variant(Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    NULL_C1 = "NullC1"
    NULL_C2 = "NullC2"
    NULL_T1 = "NullT1"

    @property
    def lam(self) -> int:
        """Quadric sign: +1 pseudo hypersphere, -1 pseudo hyperbolic."""
        return -1 if self in (Variant.C5, Variant.T4, Variant.NULL_C2) else 1

    @property
    def is_tubular(self) -> bool:
        return self in (Variant.T1, Variant.T2, Variant.T3, Variant.T4,
                        Variant.NULL_T1)

    @property
    def is_null_variant(self) -> bool:
        return self in (Variant.NULL_C1, Variant.NULL_C2, Variant.NULL_T1)


@dataclass(frozen=True)
class CanalFamily:
    """Which parametrization: curve class x variant x branch sign.

    The branch multiplies the radial part of the offset (the two signs of
    the defining square root).  Null variants carry their sign freedom in
    the angle coefficient instead and ignore the branch.
    """

    curve_class: CurveClass
    variant: Variant
    branch: int = 1

    def __post_init__(self):
        if self.branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        null_class = self.curve_class is CurveClass.NULL
        if null_class != self.variant.is_null_variant:
            raise ValueError(
                f"variant {self.variant.value} is not available for "
                f"{self.curve_class.value} center curves")

    @property
    def lam(self) -> int:
        return self.variant.lam


@dataclass(frozen=True)
class RadiusSpec:
    """Radius function r(s) evaluated as a jet (r, r', r'', r''')."""

    expression: object

    @staticmethod
    def from_text(text: str) -> "RadiusSpec":
        return RadiusSpec(expr.parse(text))

    def jet(self, s: float) -> tuple[float, float, float, float]:
        j = expr.eval_s(self.expression, s)
        return (j.value, j.d1, j.d2, j.d3)


@dataclass(frozen=True)
class ShapeSpec:
    """Free shape functions f(t,w), g(t,w) of the fiber parametrization."""

    f: object
    g: object

    @staticmethod
    def from_text(f_text: str, g_text: str) -> "ShapeSpec":
        return ShapeSpec(expr.parse(f_text), expr.parse(g_text))

    def values(self, t: float, w: float) -> tuple[float, float]:
        return (expr.eval_value(self.f, t=t, w=w),
                expr.eval_value(self.g, t=t, w=w))


@dataclass(frozen=True)
class NullCoefficients:
    """Free data of null-center families: a1(s,t,w) and the angle
    theta(s,t,w) splitting rho into (a2, a4) = rho*(cos theta, sin theta)."""

    a1: object
    theta: object

    @staticmethod
    def from_text(a1_text: str, theta_text: str) -> "NullCoefficients":
        return NullCoefficients(expr.parse(a1_text), expr.parse(theta_text))

    def values(self, s: float, t: float, w: float) -> tuple[float, float]:
        return (expr.eval_value(self.a1, s=s, t=t, w=w),
                expr.eval_value(self.theta, s=s, t=t, w=w))


@dataclass(frozen=True)
class CurvaturePair:
    K: float
    H: float


# ---------------------------------------------------------------------------
# Point evaluation

# Fiber coefficient patterns (a2, a3, a4) per variant, as functions of the
# shape values.  "trig" rows: (F2 coefficient, F3 coefficient, F4 coefficient).

def _fiber_pseudo(variant: Variant, f: float, g: float):
    if variant in (Variant.C1, Variant.T1):
        return (g * math.sin(f), math.cos(f), math.sin(f) / (2.0 * g))
    if variant in (Variant.C2, Variant.T2):
        return (g * math.cos(f), math.sin(f), math.cos(f) / (2.0 * g))
    if variant in (Variant.C3, Variant.T3):
        return (g * math.sinh(f), math.cosh(f), -math.sinh(f) / (2.0 * g))
    # C4, C5, T4 share the cosh/sinh pattern.
    return (g * math.cosh(f), math.sinh(f), -math.cosh(f) / (2.0 * g))


def _fiber_partial(variant: Variant, f: float, g: float):
    if variant in (Variant.C1, Variant.T1):
        return (math.sin(f), g * math.cos(f), math.cos(f) / (2.0 * g))
    if variant in (Variant.C2, Variant.T2):
        return (math.cos(f), g * math.sin(f), math.sin(f) / (2.0 * g))
    if variant in (Variant.C3, Variant.T3):
        return (math.cosh(f), g * math.sinh(f), -math.sinh(f) / (2.0 * g))
    return (math.sinh(f), g * math.cosh(f), -math.cosh(f) / (2.0 * g))


def _radial_scale(variant: Variant, r: float, r1: float) -> float:
    """r * sqrt(...) radial factor, with the variant regime checks."""
    if variant.is_tubular:
        if abs(r1) > CONST_RADIUS_TOL:
            raise RegimeError(
                f"tubular variant requires a constant radius, got r'={r1}")
        return r
    if variant in (Variant.C1, Variant.C2, Variant.C3):
        if r1 * r1 >= 1.0:
            raise RegimeError(f"variant {variant.value} requires r'^2 < 1, "
                              f"got r'={r1}")
        return r * math.sqrt(1.0 - r1 * r1)
    if variant is Variant.C4:
        if r1 * r1 <= 1.0:
            raise RegimeError(f"variant C4 requires r'^2 > 1, got r'={r1}")
        return r * math.sqrt(r1 * r1 - 1.0)
    return r * math.sqrt(1.0 + r1 * r1)  # C5


def frame_coefficients(family: CanalFamily, r_jet, f: float, g: float,
                       nc_values=None) -> tuple[float, float, float, float]:
    """Offset coefficients (a1, a2, a3, a4) of C - gamma in the frame."""
    r, r1 = r_jet[0], r_jet[1]
    if r <= 0:
        raise RegimeError(f"radius must be positive, got r={r}")
    variant = family.variant
    if variant.is_null_variant:
        if nc_values is None:
            raise RegimeError("null families require NullCoefficients")
        a1, theta = nc_values
        if variant.is_tubular and abs(r1) > CONST_RADIUS_TOL:
            raise RegimeError(
                f"tubular variant requires a constant radius, got r'={r1}")
        lam = family.lam
        rho_sq = lam * r * (r + 2.0 * a1 * r1)
        if rho_sq < 0:
            raise RegimeError(
                f"rho^2 = lambda*r*(r + 2*a1*r') = {rho_sq} < 0")
        rho = math.sqrt(rho_sq)
        a3 = -lam * r * r1
        return (a1, rho * math.cos(theta), a3, rho * math.sin(theta))
    if g == 0.0:
        raise RegimeError("shape function g vanishes at the evaluation point")
    rho = _radial_scale(variant, r, r1)
    a1 = 0.0 if variant.is_tubular else -family.lam * r * r1
    fiber = (_fiber_pseudo if family.curve_class is CurveClass.PSEUDO_NULL
             else _fiber_partial)(variant, f, g)
    b = float(family.branch)
    return (a1, b * rho * fiber[0], b * rho * fiber[1], b * rho * fiber[2])


def evaluate_point(family: CanalFamily, curve: CurveSpec, radius: RadiusSpec,
                   shape: ShapeSpec | None, nc: NullCoefficients | None,
                   s: float, t: float, w: float) -> Vec4:
    """The hypersurface point C(s,t,w) assembled in the frame at s."""
    if curve.curve_class is not family.curve_class:
        raise RegimeError(
            f"family expects a {family.curve_class.value} curve, "
            f"got {curve.curve_class.value}")
    r_jet = radius.jet(s)
    if family.variant.is_null_variant:
        nc_values = nc.values(s, t, w) if nc is not None else None
        coeff = frame_coefficients(family, r_jet, 0.0, 1.0, nc_values)
    else:
        if shape is None:
            raise RegimeError("non-null families require a ShapeSpec")
        f, g = shape.values(t, w)
        coeff = frame_coefficients(family, r_jet, f, g)
    fr = derive_frame(curve, s)
    point = fr.point
    for a, vec in zip(coeff, fr.vectors()):
        point = point + a * vec
    return point


def unit_normal_closed_pseudo_c1(frame: FrenetData, r_jet, f: float, g: float,
                                 branch: int = 1) -> Vec4:
    """Closed-form unit normal of the pseudo null C1 family: the radial
    direction (C - gamma)/r."""
    r1 = r_jet[1]
    if r1 * r1 >= 1.0:
        raise RegimeError("C1 requires r'^2 < 1")
    root = math.sqrt(1.0 - r1 * r1)
    b = float(branch)
    return (-r1) * frame.f1 + (b * root * g * math.sin(f)) * frame.f2 \
        + (b * root * math.cos(f)) * frame.f3 \
        + (b * root * math.sin(f) / (2.0 * g)) * frame.f4


# ---------------------------------------------------------------------------
# Closed-form curvatures

def _guard(num: float, den: float) -> float:
    if abs(den) <= DENOM_TOL * max(1.0, abs(num)):
        raise SingularPointError(
            f"closed-form denominator {den} vanishes (numerator {num})")
    return num / den


def _kh_pseudo_c123(k1, r, r1, r2, T, g, hyperbolic: bool):
    """Shared core of pseudo null C1 (sin), C2 via sign flips, C3 (sinh)."""
    m = 1.0 - r1 * r1
    sm = math.sqrt(m)
    a = m - r * r2
    amm = m - 2.0 * r * r2
    c = 2.0 * m - 3.0 * r * r2
    sgn = -1.0 if hyperbolic else 1.0  # F4 fiber sign: C3 carries -sinh/2g
    num_k = (-r * m * k1 * k1 * T * T + 4.0 * r2 * a * g * g
             + sgn * 2.0 * sm * amm * k1 * g * T)
    den_k = r * r * (r * sm * k1 * T - sgn * 2.0 * a * g) ** 2
    num_h = (sgn * 2.0 * r * m * sm * k1 * g * T
             + 3.0 * r * r * m * k1 * k1 * T * T - 4.0 * a * c * g * g)
    den_h = 3.0 * (-r ** 3 * m * k1 * k1 * T * T + 4.0 * r * a * a * g * g)
    return num_k, den_k, num_h, den_h


def _kh_pseudo(variant: Variant, k1, r, r1, r2, f, g, b):
    if variant is Variant.C1:
        T = b * math.sin(f)
        return _kh_pseudo_c123(k1, r, r1, r2, T, g, hyperbolic=False)
    if variant is Variant.C2:
        T = b * math.cos(f)
        nk, dk, nh, dh = _kh_pseudo_c123(k1, r, r1, r2, T, g, hyperbolic=False)
        return (-nk, dk, -nh, dh)
    if variant is Variant.C3:
        T = b * math.sinh(f)
        return _kh_pseudo_c123(k1, r, r1, r2, T, g, hyperbolic=True)
    if variant is Variant.C4:
        T = b * math.cosh(f)
        m = r1 * r1 - 1.0
        sm = math.sqrt(m)
        a = m + r * r2      # -1 + r'^2 + r r''
        amm = m + 2.0 * r * r2
        c = 2.0 * m + 3.0 * r * r2
        num_k = (-r * m * k1 * k1 * T * T - 4.0 * r2 * a * g * g
                 + 2.0 * sm * amm * k1 * g * T)
        den_k = r * r * (r * sm * k1 * T - 2.0 * a * g) ** 2
        num_h = (-2.0 * r * m * sm * k1 * g * T
                 - 3.0 * r * r * m * k1 * k1 * T * T + 4.0 * a * c * g * g)
        den_h = 3.0 * (r ** 3 * m * k1 * k1 * T * T - 4.0 * r * a * a * g * g)
        return num_k, den_k, num_h, den_h
    # C5
    T = b * math.cosh(f)
    p = 1.0 + r1 * r1
    sp = math.sqrt(p)
    a = p + r * r2
    amm = p + 2.0 * r * r2
    c = 2.0 * p + 3.0 * r * r2
    num_k = (r * p * k1 * k1 * T * T + 4.0 * r2 * a * g * g
             + 2.0 * sp * amm * k1 * g * T)
    den_k = r * r * (r * sp * k1 * T + 2.0 * a * g) ** 2
    num_h = (-2.0 * r * p * sp * k1 * g * T
             + 3.0 * r * r * p * k1 * k1 * T * T - 4.0 * a * c * g * g)
    den_h = 3.0 * (r ** 3 * p * k1 * k1 * T * T - 4.0 * r * a * a * g * g)
    return num_k, den_k, num_h, den_h


def _kh_partial(variant: Variant, k1, r, r1, r2, f, g, b):
    if variant in (Variant.C1, Variant.C2, Variant.C3):
        m = 1.0 - r1 * r1
        sm = math.sqrt(m)
        a = m - r * r2
        amm = m - 2.0 * r * r2
        c = 2.0 * m - 3.0 * r * r2
        T = b * {Variant.C1: math.sin, Variant.C2: math.cos,
                 Variant.C3: math.cosh}[variant](f)
        num_k = -r * m * k1 * k1 * T * T + r2 * a + sm * amm * k1 * T
        den_k = r * r * (a - r * sm * k1 * T) ** 2
        num_h = (r * m * sm * k1 * T + 3.0 * r * r * m * k1 * k1 * T * T
                 - a * c)
        den_h = 3.0 * r * (-r * r * m * k1 * k1 * T * T + a * a)
        if variant is Variant.C2:
            return (-num_k, den_k, -num_h, den_h)
        return num_k, den_k, num_h, den_h
    if variant is Variant.C4:
        T = b * math.sinh(f)
        m = r1 * r1 - 1.0
        sm = math.sqrt(m)
        a = m + r * r2
        amm = m + 2.0 * r * r2
        c = 2.0 * m + 3.0 * r * r2
        num_k = -(r * m * k1 * k1 * T * T + r2 * a + sm * amm * k1 * T)
        den_k = r * r * (a + r * sm * k1 * T) ** 2
        num_h = (r * m * sm * k1 * T - 3.0 * r * r * m * k1 * k1 * T * T
                 + a * c)
        den_h = 3.0 * r * (r * r * m * k1 * k1 * T * T - a * a)
        return num_k, den_k, num_h, den_h
    # C5
    T = b * math.sinh(f)
    p = 1.0 + r1 * r1
    sp = math.sqrt(p)
    a = p + r * r2
    amm = p + 2.0 * r * r2
    c = 2.0 * p + 3.0 * r * r2
    num_k = r * p * k1 * k1 * T * T + r2 * a - sp * amm * k1 * T
    den_k = r * r * (a - r * sp * k1 * T) ** 2
    num_h = r * p * sp * k1 * T + 3.0 * r * r * p * k1 * k1 * T * T - a * c
    den_h = 3.0 * r * (r * r * p * k1 * k1 * T * T - a * a)
    return num_k, den_k, num_h, den_h


def _kh_tubular_pseudo(variant: Variant, k1, r, f, g, b):
    if variant is Variant.T1:
        T = b * math.sin(f)
        K = _guard(k1, r * r * (2.0 * g * _guard(1.0, T) - r * k1))
        H = _guard(1.0, -r + _guard(2.0 * r * g, -4.0 * g + 3.0 * r * k1 * T))
        return K, H
    if variant is Variant.T2:
        T = b * math.cos(f)
        K = _guard(k1, r * r * (r * k1 - 2.0 * g * _guard(1.0, T)))
        H = _guard(1.0, r + _guard(2.0 * r * g, 4.0 * g - 3.0 * r * k1 * T))
        return K, H
    if variant is Variant.T3:
        T = b * math.sinh(f)
        K = _guard(-k1, r * r * (2.0 * g * _guard(1.0, T) + r * k1))
        H = _guard(1.0, -r + _guard(2.0 * r * g, -4.0 * g - 3.0 * r * k1 * T))
        return K, H
    # T4
    T = b * math.cosh(f)
    K = _guard(k1, r * r * (2.0 * g * _guard(1.0, T) + r * k1))
    H = _guard(1.0, r + _guard(2.0 * r * g, 4.0 * g + 3.0 * r * k1 * T))
    return K, H


def _kh_tubular_partial(variant: Variant, k1, r, f, b):
    trig = {Variant.T1: math.sin, Variant.T2: math.cos,
            Variant.T3: math.cosh, Variant.T4: math.sinh}[variant]
    sign = 1.0 if variant in (Variant.T1, Variant.T3) else -1.0
    T = b * trig(f)
    K = sign * _guard(k1, r * r * (_guard(1.0, T) - r * k1))
    H = sign * _guard(1.0, -r + _guard(r, -2.0 + 3.0 * r * k1 * T))
    return K, H


def curvature_closed(family: CanalFamily, k1: float, r_jet, f: float,
                     g: float) -> CurvaturePair:
    """Gaussian and mean curvature from the family's closed form.

    ``r_jet`` is (r, r', r'') or longer.  Requires only the values of the
    shape functions, not their partials.  Raises UnsupportedFamilyError for
    null-center families and SingularPointError where a closed-form denominator
    vanishes.
    """
    if family.variant.is_null_variant:
        raise UnsupportedFamilyError(
            "null-center families have no closed-form curvatures")
    r, r1, r2 = r_jet[0], r_jet[1], r_jet[2]
    if r <= 0:
        raise RegimeError(f"radius must be positive, got r={r}")
    b = float(family.branch)
    if family.variant.is_tubular:
        if abs(r1) > CONST_RADIUS_TOL:
            raise RegimeError(
                f"tubular variant requires a constant radius, got r'={r1}")
        if family.curve_class is CurveClass.PSEUDO_NULL:
            K, H = _kh_tubular_pseudo(family.variant, k1, r, f, g, b)
        else:
            K, H = _kh_tubular_partial(family.variant, k1, r, f, b)
        return CurvaturePair(K, H)
    _radial_scale(family.variant, r, r1)  # regime check on r'^2
    kh = (_kh_pseudo if family.curve_class is CurveClass.PSEUDO_NULL
          else _kh_partial)(family.variant, k1, r, r1, r2, f, g, b)
    num_k, den_k, num_h, den_h = kh
    return CurvaturePair(_guard(num_k, den_k), _guard(num_h, den_h))


# ---------------------------------------------------------------------------
# Algebraic relations and condition residuals

#: Variants whose K-H relation carries +2/r; the others carry -2/r.
_RELATION_PLUS = (Variant.C1, Variant.C3, Variant.C4)
_RELATION_MINUS = (Variant.C2, Variant.C5)


def relation_residual(pair: CurvaturePair, r: float,
                      family: CanalFamily) -> float:
    """Left side of the linear K-H relation 3H - r^2 K +/- 2/r."""
    if family.curve_class not in (CurveClass.PSEUDO_NULL,
                                  CurveClass.PARTIALLY_NULL):
        raise UnsupportedFamilyError(
            "K-H relations cover pseudo null and partially null canal "
            "variants only")
    if family.variant in _RELATION_PLUS:
        return 3.0 * pair.H - r * r * pair.K + 2.0 / r
    if family.variant in _RELATION_MINUS:
        return 3.0 * pair.H - r * r * pair.K - 2.0 / r
    raise UnsupportedFamilyError(
        f"no K-H relation for variant {family.variant.value}")


def _is_zero_k1(k1: float) -> bool:
    return abs(k1) <= 1e-12


def _shape_is_g_eq_sinf(f: float, g: float) -> bool:
    return abs(g - math.sin(f)) <= 1e-9


def flat_residual(family: CanalFamily, r_jet, k1: float,
                  f: float | None = None, g: float | None = None) -> float:
    """Left side of the flatness condition governing the family/case.

    Pseudo null C1: r'' for straight centers; the degree-2 polynomial in
    (r, r', r'') under g = sin f; otherwise the full K numerator.
    Partially null C5: r'' for straight centers (flatness is impossible
    for curved ones, reported as unsupported).
    """
    r, r1, r2 = r_jet[0], r_jet[1], r_jet[2]
    if (family.curve_class is CurveClass.PSEUDO_NULL
            and family.variant is Variant.C1):
        if _is_zero_k1(k1):
            return r2
        if f is None or g is None:
            raise RegimeError("curved-center flatness requires f, g values")
        m = 1.0 - r1 * r1
        sm = math.sqrt(m)
        if _shape_is_g_eq_sinf(f, g):
            return (2.0 * m * (sm + 2.0 * r2)
                    - r * (m + 4.0 * r2 * (sm + r2)))
        return (-r * m * math.sin(f) ** 2
                + 4.0 * r2 * (m - r * r2) * g * g
                + 2.0 * sm * (m - 2.0 * r * r2) * g * math.sin(f))
    if (family.curve_class is CurveClass.PARTIALLY_NULL
            and family.variant is Variant.C5):
        if _is_zero_k1(k1):
            return r2
        raise UnsupportedFamilyError(
            "partially null C5 cannot be flat for k1 != 0")
    raise UnsupportedFamilyError(
        f"no flatness condition for {family.curve_class.value} "
        f"{family.variant.value}")


def minimal_residual(family: CanalFamily, r_jet, k1: float,
                     f: float | None = None, g: float | None = None) -> float:
    """Left side of the minimality condition governing the family/case.

    Pseudo null C1: 2 - 2r'^2 - 3rr'' for straight centers; the g = sin f
    polynomial for curved ones; otherwise the full H numerator.
    Partially null C5: 2 + 2r'^2 + 3rr'' for straight centers.
    """
    r, r1, r2 = r_jet[0], r_jet[1], r_jet[2]
    if (family.curve_class is CurveClass.PSEUDO_NULL
            and family.variant is Variant.C1):
        if _is_zero_k1(k1):
            return 2.0 - 2.0 * r1 * r1 - 3.0 * r * r2
        if f is None or g is None:
            raise RegimeError("curved-center minimality requires f, g values")
        m = 1.0 - r1 * r1
        sm = math.sqrt(m)
        if _shape_is_g_eq_sinf(f, g):
            return (8.0 * m * m - 2.0 * r * m * (sm + 10.0 * r2)
                    - 3.0 * r * r * (m - 4.0 * r2 * r2))
        return (2.0 * r * m * sm * g * math.sin(f)
                + 3.0 * r * r * m * math.sin(f) ** 2
                - 4.0 * (m - r * r2) * (2.0 * m - 3.0 * r * r2) * g * g)
    if (family.curve_class is CurveClass.PARTIALLY_NULL
            and family.variant is Variant.C5):
        if _is_zero_k1(k1):
            return 2.0 + 2.0 * r1 * r1 + 3.0 * r * r2
        raise UnsupportedFamilyError(
            "partially null C5 cannot be minimal for k1 != 0")
    raise UnsupportedFamilyError(
        f"no minimality condition for {family.curve_class.value} "
        f"{family.variant.value}")


def null_constraint_residual(a1: float, a2: float, a4: float, r: float,
                             r1: float, lam: int) -> float:
    """a2^2 + a4^2 - lambda*r*(r + 2*a1*r'): zero for coefficients built
    from NullCoefficients, generally nonzero for raw external data."""
    return a2 * a2 + a4 * a4 - lam * r * (r + 2.0 * a1 * r1)


# ---------------------------------------------------------------------------
# Weingarten residuals for tubular families


@dataclass(frozen=True)
class WeingartenReport:
    """Max mixed-Jacobian residuals |H_x K_y - H_y K_x| over a grid."""

    st: float
    sw: float
    tw: float
    points: int
    singular: int

    def max_residual(self) -> float:
        return max(self.st, self.sw, self.tw)


def weingarten_residuals(family: CanalFamily, curve: CurveSpec,
                         radius: RadiusSpec, shape: ShapeSpec,
                         points) -> WeingartenReport:
    """Mixed Jacobians of (H, K) in the parameter pairs, by central
    differences (step WEINGARTEN_STEP) of the closed forms at the points."""
    if not family.variant.is_tubular or family.variant.is_null_variant:
        raise UnsupportedFamilyError(
            "Weingarten residuals are defined for tubular variants with "
            "closed forms")
    h = WEINGARTEN_STEP

    def pair_at(s, t, w) -> CurvaturePair:
        fr = derive_frame(curve, s)
        f, g = shape.values(t, w)
        return curvature_closed(family, fr.k1, radius.jet(s), f, g)

    worst = {"st": 0.0, "sw": 0.0, "tw": 0.0}
    n_points = 0
    n_singular = 0
    for (s, t, w) in points:
        try:
            ks = [pair_at(s + h, t, w), pair_at(s - h, t, w),
                  pair_at(s, t + h, w), pair_at(s, t - h, w),
                  pair_at(s, t, w + h), pair_at(s, t, w - h)]
        except SingularPointError:
            n_singular += 1
            continue
        H_s = (ks[0].H - ks[1].H) / (2 * h)
        K_s = (ks[0].K - ks[1].K) / (2 * h)
        H_t = (ks[2].H - ks[3].H) / (2 * h)
        K_t = (ks[2].K - ks[3].K) / (2 * h)
        H_w = (ks[4].H - ks[5].H) / (2 * h)
        K_w = (ks[4].K - ks[5].K) / (2 * h)
        worst["st"] = max(worst["st"], abs(H_s * K_t - H_t * K_s))
        worst["sw"] = max(worst["sw"], abs(H_s * K_w - H_w * K_s))
        worst["tw"] = max(worst["tw"], abs(H_t * K_w - H_w * K_t))
        n_points += 1
    return WeingartenReport(worst["st"], worst["sw"], worst["tw"],
                            n_points, n_singular)
