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

import numpy as np

from . import expr
from .curves import CurveClass, CurveSpec, FrenetData, derive_frames
from .curves import derive_frame  # noqa: F401  (importable from canal)
from .expr import libm
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

    def jet(self, s):
        """(r, r', r'', r''') at s: floats for one s, arrays of the shape of
        an array of s values (one jet walk, see ``expr.eval_s``)."""
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
# The batched field kernel
#
# ``field`` evaluates a family at N parameter points in one pass.  It derives
# the frames and radius jets of all distinct s in one call each, the shape
# values and their trig values once per distinct (t, w), and the null
# coefficients once per distinct (s, t, w).  Transcendental functions run
# through Python's math module (``expr.libm``) and numpy only combines their
# values with correctly rounded elementwise operations (+ - * /, square,
# sqrt), so a point gets the same bits in any batch.  The one-point entry
# points (evaluate_point, frame_coefficients, curvature_closed) are adapters
# over the same functions.


@dataclass(frozen=True)
class Field:
    """A family evaluated at N parameter points."""

    #: (N, 4) hypersurface points C(s, t, w)
    points: np.ndarray
    #: (N, 4) center curve points gamma(s)
    center: np.ndarray
    #: (N,) radius r(s)
    r: np.ndarray
    #: (N,) closed-form curvatures; None for null-center families
    K: np.ndarray | None
    H: np.ndarray | None
    #: (N,) True where a closed-form denominator vanishes (K, H undefined)
    singular: np.ndarray


def _distinct(*columns):
    """Distinct rows of equal-length float columns, compared bit for bit,
    and the index of each row's distinct entry."""
    cols = [np.ascontiguousarray(c, dtype=float) for c in columns]
    keys = [c.view(np.int64) for c in cols]
    order = np.lexsort(keys[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return [c[order[starts]] for c in cols], inverse


def _regime(bad, message: str, x) -> None:
    """Raise ``RegimeError(message)`` with the first element of x where
    ``bad`` holds filled in."""
    if np.any(bad):
        raise RegimeError(message.format(float(np.asarray(x)[bad][0])))


def _check_radius(variant: Variant, r, r1) -> None:
    _regime(r <= 0, "radius must be positive, got r={}", r)
    if variant.is_tubular:
        _regime(np.abs(r1) > CONST_RADIUS_TOL,
                "tubular variant requires a constant radius, got r'={}", r1)


def _radial_scale(variant: Variant, r, r1):
    """r * sqrt(...) radial factor of a non-null variant at floats or
    arrays r, r', with the variant regime checks."""
    _check_radius(variant, r, r1)
    if variant.is_tubular:
        return r
    q = r1 * r1
    if variant in (Variant.C1, Variant.C2, Variant.C3):
        _regime(q >= 1.0, f"variant {variant.value} requires r'^2 < 1, "
                "got r'={}", r1)
        return r * np.sqrt(1.0 - q)
    if variant is Variant.C4:
        _regime(q <= 1.0, "variant C4 requires r'^2 > 1, got r'={}", r1)
        return r * np.sqrt(q - 1.0)
    return r * np.sqrt(1.0 + q)  # C5


def _frames(family: CanalFamily, curve: CurveSpec, radius: RadiusSpec,
            s_values):
    """Frame rows, the radius jet (r, r', r'') and, for non-null families,
    the radial scale at the s values; frames and jets come from one call
    each."""
    fr = derive_frames(curve, s_values)
    r, r1, r2, _ = radius.jet(s_values)
    if family.variant.is_null_variant:
        _check_radius(family.variant, r, r1)
        return fr, (r, r1, r2), None
    return fr, (r, r1, r2), _radial_scale(family.variant, r, r1)


# Fiber coefficient patterns (F2, F3, F4) per variant over the trig pair
# (a, b) = (sin f, cos f) or (sinh f, cosh f), and the trig value T of the
# variant's closed forms.
_CIRCULAR = (Variant.C1, Variant.C2, Variant.T1, Variant.T2)


def _fiber_pseudo(variant: Variant, a, b, g):
    if variant in (Variant.C1, Variant.T1):
        return (g * a, b, a / (2.0 * g)), a
    if variant in (Variant.C2, Variant.T2):
        return (g * b, a, b / (2.0 * g)), b
    if variant in (Variant.C3, Variant.T3):
        return (g * a, b, -a / (2.0 * g)), a
    # C4, C5, T4 share the cosh/sinh pattern.
    return (g * b, a, -b / (2.0 * g)), b


def _fiber_partial(variant: Variant, a, b, g):
    if variant in (Variant.C1, Variant.T1):
        return (a, g * b, b / (2.0 * g)), a
    if variant in (Variant.C2, Variant.T2):
        return (b, g * a, a / (2.0 * g)), b
    if variant in (Variant.C3, Variant.T3):
        return (b, g * a, -a / (2.0 * g)), b
    return (a, g * b, -b / (2.0 * g)), a


def _fiber(family: CanalFamily, f, g):
    """Fiber coefficients (per unit radial scale) and the closed forms'
    branch-signed trig value T at shape values f, g."""
    if family.variant in _CIRCULAR:
        a, b = libm(math.sin, f), libm(math.cos, f)
    else:
        a, b = libm(math.sinh, f), libm(math.cosh, f)
    pattern = (_fiber_pseudo if family.curve_class is CurveClass.PSEUDO_NULL
               else _fiber_partial)
    fiber, trig = pattern(family.variant, a, b, g)
    return fiber, float(family.branch) * trig


def _null_coefficients(lam: int, r, r1, a1, cos_theta, sin_theta):
    """(a1, a2, a3, a4) of a null-center family from its free data."""
    rho_sq = lam * r * (r + 2.0 * a1 * r1)
    _regime(rho_sq < 0, "rho^2 = lambda*r*(r + 2*a1*r') = {} < 0", rho_sq)
    rho = np.sqrt(rho_sq)
    return (a1, rho * cos_theta, -lam * r * r1, rho * sin_theta)


def _fiber_coefficients(family: CanalFamily, r, r1, rho, fiber):
    """(a1, a2, a3, a4) of a non-null family: the radial scale times the
    branch sign times the fiber, plus the a1 = -lambda r r' offset."""
    a1 = np.zeros_like(r) if family.variant.is_tubular \
        else -family.lam * r * r1
    scale = float(family.branch) * rho
    return (a1, scale * fiber[0], scale * fiber[1], scale * fiber[2])


def _check_inputs(family: CanalFamily, curve: CurveSpec, shape, nc) -> None:
    if curve.curve_class is not family.curve_class:
        raise RegimeError(
            f"family expects a {family.curve_class.value} curve, "
            f"got {curve.curve_class.value}")
    if family.variant.is_null_variant:
        if nc is None:
            raise RegimeError("null families require NullCoefficients")
    elif shape is None:
        raise RegimeError("non-null families require a ShapeSpec")


def _shape_table(family: CanalFamily, shape: ShapeSpec, t, w):
    """Fiber and closed-form inputs per distinct (t, w): (fiber, T, g)
    over the distinct points and the index of each input point."""
    (tu, wu), ix = _distinct(t, w)
    f, g = np.array([shape.values(a, b) for a, b in zip(tu.tolist(),
                                                         wu.tolist())],
                    dtype=float).reshape(-1, 2).T
    if np.any(g == 0.0):
        raise RegimeError("shape function g vanishes at the evaluation point")
    fiber, trig = _fiber(family, f, g)
    return fiber, trig, g, ix


def field(family: CanalFamily, curve: CurveSpec, radius: RadiusSpec,
          shape: ShapeSpec | None, nc: NullCoefficients | None,
          s, t, w) -> Field:
    """The family at the parameter points (s[i], t[i], w[i]): hypersurface
    points, center points, radii and, for non-null families, the
    closed-form K, H with the mask of closed-form singular points.

    Regime violations anywhere in the batch raise ``RegimeError``; closed-
    form poles only set ``singular``.  Each point's values are the same bits
    whatever batch it is evaluated in.
    """
    _check_inputs(family, curve, shape, nc)
    s, t, w = np.broadcast_arrays(*(np.asarray(x, dtype=float).ravel()
                                    for x in (s, t, w)))
    with np.errstate(all="ignore"):
        (s_values,), s_ix = _distinct(s)
        fr, jet, rho = _frames(family, curve, radius, s_values)
        r, r1, r2 = (x[s_ix] for x in jet)
        K = H = None
        singular = np.zeros(len(s), dtype=bool)
        if family.variant.is_null_variant:
            (su, tu, wu), ix = _distinct(s, t, w)
            a1, theta = np.array(
                [nc.values(*p) for p in zip(su.tolist(), tu.tolist(),
                                            wu.tolist())],
                dtype=float).reshape(-1, 2).T
            coeff = _null_coefficients(family.lam, r, r1, a1[ix],
                                       libm(math.cos, theta)[ix],
                                       libm(math.sin, theta)[ix])
        else:
            fiber, trig, g, ix = _shape_table(family, shape, t, w)
            coeff = _fiber_coefficients(family, r, r1, rho[s_ix],
                                        [c[ix] for c in fiber])
            K, H, singular = _closed(family, fr.k1[s_ix], r, r1, r2,
                                     trig[ix], g[ix])
        center = fr.gamma[s_ix]
        points = center.copy()
        for a, f in zip(coeff, (fr.f1, fr.f2, fr.f3, fr.f4)):
            points += a[:, None] * f[s_ix]
    return Field(points, center, r, K, H, singular)


def frame_coefficients(family: CanalFamily, r_jet, f: float, g: float,
                       nc_values=None) -> tuple[float, float, float, float]:
    """Offset coefficients (a1, a2, a3, a4) of C - gamma in the frame."""
    r, r1 = (np.array([x], dtype=float) for x in r_jet[:2])
    if family.variant.is_null_variant:
        _check_radius(family.variant, r, r1)
        if nc_values is None:
            raise RegimeError("null families require NullCoefficients")
        a1, theta = nc_values
        coeff = _null_coefficients(family.lam, r, r1, np.array([a1]),
                                   math.cos(theta), math.sin(theta))
    else:
        rho = _radial_scale(family.variant, r, r1)
        if g == 0.0:
            raise RegimeError(
                "shape function g vanishes at the evaluation point")
        fiber, _ = _fiber(family, np.array([f], dtype=float),
                          np.array([g], dtype=float))
        coeff = _fiber_coefficients(family, r, r1, rho, fiber)
    return tuple(float(c[0]) for c in coeff)


def evaluate_point(family: CanalFamily, curve: CurveSpec, radius: RadiusSpec,
                   shape: ShapeSpec | None, nc: NullCoefficients | None,
                   s: float, t: float, w: float) -> Vec4:
    """The hypersurface point C(s,t,w) assembled in the frame at s
    (``field`` at one point)."""
    fld = field(family, curve, radius, shape, nc, [s], [t], [w])
    return Vec4(*fld.points[0].tolist())


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
#
# The forms below take broadcastable arrays; T is the branch-signed trig
# value of the shape function f (see ``_fiber``).  ``guard`` divides and
# marks the points whose denominator vanishes at the scale of the numerator.

def _guard_into(bad):
    def guard(num, den):
        tiny = np.abs(den) <= DENOM_TOL * np.fmax(1.0, np.abs(num))
        np.logical_or(bad, tiny, out=bad)
        return num / den
    return guard


def _kh_pseudo_c123(k1, r, r1, r2, T, g, hyperbolic: bool):
    """Shared core of pseudo null C1 (sin), C2 via sign flips, C3 (sinh)."""
    m = 1.0 - r1 * r1
    sm = np.sqrt(m)
    a = m - r * r2
    amm = m - 2.0 * r * r2
    c = 2.0 * m - 3.0 * r * r2
    sgn = -1.0 if hyperbolic else 1.0  # F4 fiber sign: C3 carries -sinh/2g
    num_k = (-r * m * k1 * k1 * T * T + 4.0 * r2 * a * g * g
             + sgn * 2.0 * sm * amm * k1 * g * T)
    den_k = r * r * np.square(r * sm * k1 * T - sgn * 2.0 * a * g)
    num_h = (sgn * 2.0 * r * m * sm * k1 * g * T
             + 3.0 * r * r * m * k1 * k1 * T * T - 4.0 * a * c * g * g)
    den_h = 3.0 * (-r * r * r * m * k1 * k1 * T * T
                   + 4.0 * r * a * a * g * g)
    return num_k, den_k, num_h, den_h


def _kh_pseudo(variant: Variant, k1, r, r1, r2, T, g):
    if variant is Variant.C1:
        return _kh_pseudo_c123(k1, r, r1, r2, T, g, hyperbolic=False)
    if variant is Variant.C2:
        nk, dk, nh, dh = _kh_pseudo_c123(k1, r, r1, r2, T, g, hyperbolic=False)
        return (-nk, dk, -nh, dh)
    if variant is Variant.C3:
        return _kh_pseudo_c123(k1, r, r1, r2, T, g, hyperbolic=True)
    if variant is Variant.C4:
        m = r1 * r1 - 1.0
        sm = np.sqrt(m)
        a = m + r * r2      # -1 + r'^2 + r r''
        amm = m + 2.0 * r * r2
        c = 2.0 * m + 3.0 * r * r2
        num_k = (-r * m * k1 * k1 * T * T - 4.0 * r2 * a * g * g
                 + 2.0 * sm * amm * k1 * g * T)
        den_k = r * r * np.square(r * sm * k1 * T - 2.0 * a * g)
        num_h = (-2.0 * r * m * sm * k1 * g * T
                 - 3.0 * r * r * m * k1 * k1 * T * T + 4.0 * a * c * g * g)
        den_h = 3.0 * (r * r * r * m * k1 * k1 * T * T
                       - 4.0 * r * a * a * g * g)
        return num_k, den_k, num_h, den_h
    # C5
    p = 1.0 + r1 * r1
    sp = np.sqrt(p)
    a = p + r * r2
    amm = p + 2.0 * r * r2
    c = 2.0 * p + 3.0 * r * r2
    num_k = (r * p * k1 * k1 * T * T + 4.0 * r2 * a * g * g
             + 2.0 * sp * amm * k1 * g * T)
    den_k = r * r * np.square(r * sp * k1 * T + 2.0 * a * g)
    num_h = (-2.0 * r * p * sp * k1 * g * T
             + 3.0 * r * r * p * k1 * k1 * T * T - 4.0 * a * c * g * g)
    den_h = 3.0 * (r * r * r * p * k1 * k1 * T * T
                   - 4.0 * r * a * a * g * g)
    return num_k, den_k, num_h, den_h


def _kh_partial(variant: Variant, k1, r, r1, r2, T, g):
    if variant in (Variant.C1, Variant.C2, Variant.C3):
        m = 1.0 - r1 * r1
        sm = np.sqrt(m)
        a = m - r * r2
        amm = m - 2.0 * r * r2
        c = 2.0 * m - 3.0 * r * r2
        num_k = -r * m * k1 * k1 * T * T + r2 * a + sm * amm * k1 * T
        den_k = r * r * np.square(a - r * sm * k1 * T)
        num_h = (r * m * sm * k1 * T + 3.0 * r * r * m * k1 * k1 * T * T
                 - a * c)
        den_h = 3.0 * r * (-r * r * m * k1 * k1 * T * T + a * a)
        if variant is Variant.C2:
            return (-num_k, den_k, -num_h, den_h)
        return num_k, den_k, num_h, den_h
    if variant is Variant.C4:
        m = r1 * r1 - 1.0
        sm = np.sqrt(m)
        a = m + r * r2
        amm = m + 2.0 * r * r2
        c = 2.0 * m + 3.0 * r * r2
        num_k = -(r * m * k1 * k1 * T * T + r2 * a + sm * amm * k1 * T)
        den_k = r * r * np.square(a + r * sm * k1 * T)
        num_h = (r * m * sm * k1 * T - 3.0 * r * r * m * k1 * k1 * T * T
                 + a * c)
        den_h = 3.0 * r * (r * r * m * k1 * k1 * T * T - a * a)
        return num_k, den_k, num_h, den_h
    # C5
    p = 1.0 + r1 * r1
    sp = np.sqrt(p)
    a = p + r * r2
    amm = p + 2.0 * r * r2
    c = 2.0 * p + 3.0 * r * r2
    num_k = r * p * k1 * k1 * T * T + r2 * a - sp * amm * k1 * T
    den_k = r * r * np.square(a - r * sp * k1 * T)
    num_h = r * p * sp * k1 * T + 3.0 * r * r * p * k1 * k1 * T * T - a * c
    den_h = 3.0 * r * (r * r * p * k1 * k1 * T * T - a * a)
    return num_k, den_k, num_h, den_h


def _kh_tubular_pseudo(variant: Variant, k1, r, T, g, guard):
    if variant is Variant.T1:
        K = guard(k1, r * r * (2.0 * g * guard(1.0, T) - r * k1))
        H = guard(1.0, -r + guard(2.0 * r * g, -4.0 * g + 3.0 * r * k1 * T))
        return K, H
    if variant is Variant.T2:
        K = guard(k1, r * r * (r * k1 - 2.0 * g * guard(1.0, T)))
        H = guard(1.0, r + guard(2.0 * r * g, 4.0 * g - 3.0 * r * k1 * T))
        return K, H
    if variant is Variant.T3:
        K = guard(-k1, r * r * (2.0 * g * guard(1.0, T) + r * k1))
        H = guard(1.0, -r + guard(2.0 * r * g, -4.0 * g - 3.0 * r * k1 * T))
        return K, H
    # T4
    K = guard(k1, r * r * (2.0 * g * guard(1.0, T) + r * k1))
    H = guard(1.0, r + guard(2.0 * r * g, 4.0 * g + 3.0 * r * k1 * T))
    return K, H


def _kh_tubular_partial(variant: Variant, k1, r, T, guard):
    sign = 1.0 if variant in (Variant.T1, Variant.T3) else -1.0
    K = sign * guard(k1, r * r * (guard(1.0, T) - r * k1))
    H = sign * guard(1.0, -r + guard(r, -2.0 + 3.0 * r * k1 * T))
    return K, H


def _closed(family: CanalFamily, k1, r, r1, r2, T, g):
    """K, H and the singular mask of a non-null family's closed form."""
    bad = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in
                                         (k1, r, r1, r2, T, g))), dtype=bool)
    guard = _guard_into(bad)
    with np.errstate(all="ignore"):
        if family.variant.is_tubular:
            if family.curve_class is CurveClass.PSEUDO_NULL:
                K, H = _kh_tubular_pseudo(family.variant, k1, r, T, g, guard)
            else:
                K, H = _kh_tubular_partial(family.variant, k1, r, T, guard)
        else:
            kh = (_kh_pseudo if family.curve_class is CurveClass.PSEUDO_NULL
                  else _kh_partial)(family.variant, k1, r, r1, r2, T, g)
            num_k, den_k, num_h, den_h = kh
            K, H = guard(num_k, den_k), guard(num_h, den_h)
    return K, H, bad


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
    _radial_scale(family.variant, r, r1)  # regime checks on r and r'
    one = [np.array([x], dtype=float) for x in (k1, r, r1, r2, f, g)]
    with np.errstate(all="ignore"):
        _, T = _fiber(family, one[4], one[5])
    K, H, bad = _closed(family, *one[:4], T, one[5])
    if bad[0]:
        raise SingularPointError(
            f"a closed-form denominator vanishes at k1={k1}, r={r}, f={f}, "
            f"g={g}")
    return CurvaturePair(float(K[0]), float(H[0]))


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
    differences (step WEINGARTEN_STEP) of the closed forms at the points.

    A point is singular when any of its six closed-form evaluations is.
    The frames and radius jets of every s the differences need come from
    one call and the shape values are computed once for every (t, w) they
    need; the closed forms are evaluated one s-slab (the points sharing one
    s value) at a time, which bounds the temporaries.
    """
    if not family.variant.is_tubular or family.variant.is_null_variant:
        raise UnsupportedFamilyError(
            "Weingarten residuals are defined for tubular variants with "
            "closed forms")
    _check_inputs(family, curve, shape, None)
    h = WEINGARTEN_STEP
    if not isinstance(points, np.ndarray):
        points = list(points)
    s, t, w = np.asarray(points, dtype=float).reshape(-1, 3).T
    worst = {"st": 0.0, "sw": 0.0, "tw": 0.0}
    n_points = 0
    with np.errstate(all="ignore"):
        # rows: the offsets s+h, s-h, t+h, t-h, w+h, w-h of each distinct
        # (t, w) of the points
        (tc, wc), tw_of = _distinct(t, w)
        _, trig, g, offset_ix = _shape_table(
            family, shape, np.concatenate([tc, tc, tc + h, tc - h, tc, tc]),
            np.concatenate([wc, wc, wc, wc, wc + h, wc - h]))
        offset_ix = offset_ix.reshape(6, -1)
        # frames at s+h, s-h and s of every distinct s, in one call
        (s_values,), slab_of = _distinct(s)
        m = len(s_values)
        fr, (r, r1, r2), _ = _frames(
            family, curve, radius,
            np.concatenate([s_values + h, s_values - h, s_values]))
        for k in range(m):
            sel = np.flatnonzero(slab_of == k)
            rows = k + m * np.array([0, 1, 2, 2, 2, 2])[:, None]
            ix = offset_ix[:, tw_of[sel]]
            K, H, bad = _closed(family, fr.k1[rows], r[rows], r1[rows],
                                r2[rows], trig[ix], g[ix])
            ok = ~bad.any(axis=0)
            K, H = K[:, ok], H[:, ok]
            H_s = (H[0] - H[1]) / (2 * h)
            K_s = (K[0] - K[1]) / (2 * h)
            H_t = (H[2] - H[3]) / (2 * h)
            K_t = (K[2] - K[3]) / (2 * h)
            H_w = (H[4] - H[5]) / (2 * h)
            K_w = (K[4] - K[5]) / (2 * h)
            for key, res in (("st", H_s * K_t - H_t * K_s),
                             ("sw", H_s * K_w - H_w * K_s),
                             ("tw", H_t * K_w - H_w * K_t)):
                worst[key] = float(np.fmax.reduce(np.abs(res),
                                                  initial=worst[key]))
            n_points += int(ok.sum())
    return WeingartenReport(worst["st"], worst["sw"], worst["tw"],
                            n_points, len(s) - n_points)
