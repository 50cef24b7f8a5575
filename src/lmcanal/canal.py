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
partially null canal variants and the eight tubular ones: one formula with
per-variant terms from one table, a tubular variant reading the row of a
canal one (see "Closed-form curvatures" below); the partially null forms
are the pseudo null ones with 2g replaced by +-1.  Null-center families
have none and are covered by the oracle only.  The forms hold for branch
+1; for branch -1 the radial part flips sign, which enters them only
through the fiber trig value, so the branch sign is folded into that value
(checked against the oracle on every non-null gate scene in
tests/test_closed_vs_oracle.py).
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import expr
from .curves import CurveClass, CurveSpec, FrameRows, derive_frames
from .curves import derive_frame  # noqa: F401  (importable from canal)
from .expr import libm

#: Scaled threshold below which a closed-form denominator counts as singular.
DENOM_TOL = 1e-12
#: Tubular variants require |r'| below this.
CONST_RADIUS_TOL = 1e-9


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


class _FamilyFields(NamedTuple):
    curve_class: CurveClass
    variant: Variant
    branch: int


class CanalFamily(_FamilyFields):
    """Which parametrization: curve class x variant x branch sign.

    The branch multiplies the radial part of the offset (the two signs of
    the defining square root).  Null variants carry their sign freedom in
    the angle coefficient instead and take branch +1 only.
    """

    __slots__ = ()

    def __new__(cls, curve_class: CurveClass, variant: Variant,
                branch: int = 1):
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        null_class = curve_class is CurveClass.NULL
        if null_class != variant.is_null_variant:
            raise ValueError(
                f"variant {variant.value} is not available for "
                f"{curve_class.value} center curves")
        if null_class and branch != 1:
            raise ValueError("null variants take branch +1 only")
        return super().__new__(cls, curve_class, variant, branch)

    @classmethod
    def _make(cls, fields):
        """Build through ``__new__``, so ``_replace`` validates too."""
        return cls(*fields)

    @property
    def lam(self) -> int:
        return self.variant.lam


class RadiusSpec(NamedTuple):
    """Radius function r(s), read as (r, r', r'', r''') from the
    derivatives of its degree-4 s-jet."""

    expression: object

    @staticmethod
    def from_text(text: str) -> "RadiusSpec":
        return RadiusSpec(expr.parse(text))

    def jet(self, s):
        """(r, r', r'', r''') at s: floats for one s, arrays of the shape of
        an array of s values (one jet walk, see ``expr.eval_s``)."""
        return expr.eval_s(self.expression, s).derivatives()[:4]


class ShapeSpec(NamedTuple):
    """Free shape functions f(t,w), g(t,w) of the fiber parametrization."""

    f: object
    g: object

    @staticmethod
    def from_text(f_text: str, g_text: str) -> "ShapeSpec":
        return ShapeSpec(expr.parse(f_text), expr.parse(g_text))

    def values(self, t, w):
        """(f, g) at (t, w): floats, or arrays of the broadcast shape of
        arrays t, w from one walk per expression (see ``expr.eval_value``)."""
        return (expr.eval_value(self.f, t=t, w=w),
                expr.eval_value(self.g, t=t, w=w))


class NullCoefficients(NamedTuple):
    """Free data of null-center families: a1(s,t,w) and the angle
    theta(s,t,w) splitting rho into (a2, a4) = rho*(cos theta, sin theta)."""

    a1: object
    theta: object

    @staticmethod
    def from_text(a1_text: str, theta_text: str) -> "NullCoefficients":
        return NullCoefficients(expr.parse(a1_text), expr.parse(theta_text))


class CurvaturePair(NamedTuple):
    """K and H at one point (floats) or at many (arrays of one shape)."""

    K: float | np.ndarray
    H: float | np.ndarray


# ---------------------------------------------------------------------------
# The batched field kernel
#
# C(s,t,w) = gamma(s) + sum a_i F_i(s) reads the frame, the radius jet and
# the radial factor at s alone and the shape values at (t, w) alone, as a
# null family's a1 and theta where they read no s (where they do, they are
# walked at the rows).  Callers evaluate on a product of s values and
# (t, w) pairs that they state: the table stage (``field_tables``)
# evaluates each s value and each (t, w) pair once, and the row stages
# (``field_points``, ``field_rows``) read the tables at index arrays that
# broadcast, typically an (n, 1) block of s indices by a (1, m) block of
# (t, w) indices, so an s-only or
# (t, w)-only factor is gathered and computed once per value, and a caller
# that needs the closed forms at a few rows only (the oracle's stencil
# centers, see ``verify.grid_table``) pays for those rows only.  One table
# may hold several callers' axes, each reading its own index blocks (see
# ``verify.scene_tables``).  Transcendental functions
# run through Python's math module (``expr.libm``) and numpy only combines
# their values with correctly rounded elementwise operations (+ - * /,
# square, sqrt), so a point gets the same bits in any batch and from any
# stage.  ``field`` and the one-point entry points (evaluate_point,
# curvature_closed) are adapters over the same functions.


class Field(NamedTuple):
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
    #: (N,) True where the shared denominator D vanishes (K, H undefined)
    singular: np.ndarray


def _regime(bad, message: str, *xs) -> None:
    """Raise ``RegimeError(message)`` with the first element of each x
    where ``bad`` holds filled in."""
    if np.any(bad):
        raise RegimeError(message.format(*(float(np.asarray(x)[bad][0])
                                           for x in xs)))


def _check_radius(variant: Variant, r, r1) -> None:
    _regime(r <= 0, "radius must be positive, got r={}", r)
    if variant.is_tubular:
        _regime(np.abs(r1) > CONST_RADIUS_TOL,
                "tubular variant requires a constant radius, got r'={}", r1)


def _radial_scale(variant: Variant, r, r1):
    """r * sqrt(m) radial factor of a non-null variant at floats or arrays
    r, r' (m from _CLOSED_FORMS), with the variant regime checks."""
    _check_radius(variant, r, r1)
    row = _CLOSED_FORMS[variant]
    m = row.m0 + row.mq * (r1 * r1)
    _regime(m <= 0.0, f"variant {variant.value} requires r'^2 "
            f"{'<' if row.mq < 0 else '>'} 1, got r'={{}}", r1)
    return r * np.sqrt(m)


def _frames(family: CanalFamily, curve: CurveSpec, radius: RadiusSpec,
            s_values):
    """Frame rows, the radius jet (r, r', r'') and, for non-null families,
    the radial factor branch * r sqrt(m) at the s values; frames and jets
    come from one call each."""
    fr = derive_frames(curve, s_values)
    r, r1, r2, _ = radius.jet(s_values)
    if family.variant.is_null_variant:
        _check_radius(family.variant, r, r1)
        return fr, (r, r1, r2), None
    return fr, (r, r1, r2), (float(family.branch)
                             * _radial_scale(family.variant, r, r1))


# A non-null fiber is built from the trig pair (sin f, cos f) or
# (sinh f, cosh f).  The closed forms read one of the two, T, signed by the
# branch; the fiber reads T unsigned and its mate M.  Per unit radial
# factor the coefficients of (F2, F3, F4) are (g T, M, +-T/(2g)) for pseudo
# null centers and (T, g M, +-M/(2g)) for partially null ones, with the
# minus sign on the hyperbolic pair.


def _trig_functions(family: CanalFamily):
    """The functions of f giving T and its mate: the variant's column of
    _CLOSED_FORMS for the center class."""
    row = _CLOSED_FORMS[family.variant]
    return (row.pseudo_trig if family.curve_class is CurveClass.PSEUDO_NULL
            else row.partial_trig)


def _trig(family: CanalFamily, f):
    """The closed forms' branch-signed trig value T at shape values f."""
    return float(family.branch) * libm(_trig_functions(family)[0], f)


def _fiber(family: CanalFamily, f, g, T):
    """Fiber coefficients of (F2, F3, F4) per unit radial factor at shape
    values f, g, given T = _trig(family, f)."""
    trig = float(family.branch) * T  # unsigned again, exactly
    functions = _trig_functions(family)
    mate = libm(functions[1], f)
    sign = 1.0 if math.sin in functions else -1.0
    if family.curve_class is CurveClass.PSEUDO_NULL:
        return g * trig, mate, sign * trig / (2.0 * g)
    return trig, g * mate, sign * mate / (2.0 * g)


def _cos_sin(theta):
    return libm(math.cos, theta), libm(math.sin, theta)


def _on_pairs(e, t, w):
    """A null expression at the (t, w) pairs, or None when it reads s."""
    return None if "s" in expr.variables(e) else expr.eval_value(e, t=t, w=w)


class FieldTables(NamedTuple):
    """The table stage of ``field``: a family's inputs at an array of s
    values and at an array of (t, w) pairs."""

    family: CanalFamily
    #: the s values and the (t, w) pairs (t[j], w[j]) of the tables
    s: np.ndarray
    t: np.ndarray
    w: np.ndarray
    #: frame rows, the radius jet (r, r', r'') and the radial factor
    #: branch * r sqrt(m) (None for null families) at the s values
    frames: FrameRows
    jet: tuple
    radial: np.ndarray | None
    #: the shape values f, g and the closed forms' trig value T at the
    #: (t, w) pairs; None for null families
    f: np.ndarray | None
    g: np.ndarray | None
    T: np.ndarray | None
    #: a null family's free data, and its a1 and (cos theta, sin theta) at
    #: the (t, w) pairs, like the shape values; a factor whose expression
    #: reads s is None here and walked at the rows by ``field_points``
    nc: NullCoefficients | None
    a1_tw: np.ndarray | None = None
    cos_sin_tw: tuple | None = None


def field_tables(family: CanalFamily, curve: CurveSpec, radius: RadiusSpec,
                 shape: ShapeSpec | None, nc: NullCoefficients | None,
                 s, t, w) -> FieldTables:
    """The table stage of ``field``: frames, radius jets and radial factors
    at the s values (raveled to 1-D), for non-null families the shape
    values at the (t, w) pairs (t[j], w[j]), and for null families a1 and
    theta's cos and sin at the pairs where the expression has no s (one in
    s is left to the rows).  Each value is evaluated once, in the order
    given; nothing is deduplicated.

    Regime violations and domain errors raise naming the first failing
    value in that order.
    """
    if curve.curve_class is not family.curve_class:
        raise RegimeError(
            f"family expects a {family.curve_class.value} curve, "
            f"got {curve.curve_class.value}")
    if family.variant.is_null_variant:
        if nc is None:
            raise RegimeError("null families require NullCoefficients")
    elif shape is None:
        raise RegimeError("non-null families require a ShapeSpec")
    s = np.asarray(s, dtype=float).ravel()
    t, w = np.broadcast_arrays(*(np.asarray(x, dtype=float).ravel()
                                 for x in (t, w)))
    with np.errstate(all="ignore"):
        fr, jet, radial = _frames(family, curve, radius, s)
        if family.variant.is_null_variant:
            a1, theta = (_on_pairs(e, t, w) for e in (nc.a1, nc.theta))
            return FieldTables(family, s, t, w, fr, jet, None, None, None,
                               None, nc, a1,
                               None if theta is None else _cos_sin(theta))
        f, g = shape.values(t, w)
        _regime(g == 0.0, "shape function g vanishes at (t, w) = ({}, {})",
                t, w)
    return FieldTables(family, s, t, w, fr, jet, radial, f, g,
                       _trig(family, f), None)


def _fiber_coefficients(tables: FieldTables, s_ix, tw_ix):
    """(a1, a2, a3, a4) of a non-null family at the rows, one at a time."""
    family = tables.family
    r, r1, _ = tables.jet
    yield (-family.lam * r * r1)[s_ix]
    radial = tables.radial[s_ix]
    for c in _fiber(family, tables.f, tables.g, tables.T):
        yield radial * c[tw_ix]


def _null_coefficients(tables: FieldTables, s_ix, tw_ix):
    """(a1, a2, a3, a4) of a null-center family at the rows: a1, cos theta
    and sin theta gathered from the (t, w) tables at tw_ix, or walked at
    the rows where the expression reads s; a negative rho^2 is reported at
    the first row where it occurs."""
    def walk(e):
        return expr.eval_value(e, s=tables.s[s_ix], t=tables.t[tw_ix],
                               w=tables.w[tw_ix])

    # The coefficients are row-sized, so each temporary is dropped as soon
    # as it is used.
    nc = tables.nc
    a1 = walk(nc.a1) if tables.a1_tw is None else tables.a1_tw[tw_ix]
    cos, sin = (_cos_sin(walk(nc.theta)) if tables.cos_sin_tw is None
                else (x[tw_ix] for x in tables.cos_sin_tw))
    lam = tables.family.lam
    r, r1 = (x[s_ix] for x in tables.jet[:2])
    a3 = -lam * r * r1
    rho = lam * r * (r + 2.0 * a1 * r1)
    del r, r1
    _regime(rho < 0, "rho^2 = lambda*r*(r + 2*a1*r') = {} < 0", rho)
    np.sqrt(rho, out=rho)
    return [a1, rho * cos, a3, rho * sin]


def field_points(tables: FieldTables, s_ix, tw_ix) -> np.ndarray:
    """The hypersurface points gamma + a1 F1 + a2 F2 + a3 F3 + a4 F4 at the
    rows (tables.s[s_ix], tables.t[tw_ix], tables.w[tw_ix]) of the index
    arrays' broadcast, as an array of that shape with a last axis of 4.

    Frame rows and s-only factors are gathered at s_ix and (t, w)-only
    factors at tw_ix, each at its own index shape, and multiplied under
    broadcasting, so index blocks of shapes (n, 1) and (1, m) gather n and
    m values, not n m.  The points are built component-major, one
    coefficient and one contiguous column at a time, and returned as the
    (..., 4) view of that array, so no other array of their size is made.
    A null family's a1, cos theta and sin theta are gathered at tw_ix like
    the shape factors, and an expression that reads s is walked at the
    rows before the points are allocated.
    """
    fr = tables.frames
    shape = np.broadcast_shapes(np.shape(s_ix), np.shape(tw_ix))
    with np.errstate(all="ignore"):
        coefficients = iter((_fiber_coefficients if tables.nc is None
                             else _null_coefficients)(tables, s_ix, tw_ix))
        a1, gamma, f1 = next(coefficients), fr.gamma[s_ix], fr.f1[s_ix]
        points = np.empty((4,) + shape)
        for k in range(4):
            points[k] = gamma[..., k] + a1 * f1[..., k]
        for a, f in zip(coefficients, (fr.f2, fr.f3, fr.f4)):
            f = f[s_ix]
            for k in range(4):
                points[k] += a * f[..., k]
    return np.moveaxis(points, 0, -1)


def field_rows(tables: FieldTables, s_ix, tw_ix):
    """Center points and radii at the s values s_ix, and the closed-form
    K, H (None for null families) and singular mask at the broadcast of
    the index arrays s_ix and tw_ix.  Index blocks of shapes (n, 1) and
    (1, m) give (n, m) closed forms whose s-only terms are computed once
    per s value."""
    fr = tables.frames
    r, r1, r2 = (x[s_ix] for x in tables.jet)
    if tables.T is None:
        shape = np.broadcast_shapes(np.shape(s_ix), np.shape(tw_ix))
        return fr.gamma[s_ix], r, None, None, np.zeros(shape, dtype=bool)
    K, H, singular = _closed(tables.family, fr.k1[s_ix], r, r1, r2,
                             tables.T[tw_ix], tables.g[tw_ix])
    return fr.gamma[s_ix], r, K, H, singular


def field(family: CanalFamily, curve: CurveSpec, radius: RadiusSpec,
          shape: ShapeSpec | None, nc: NullCoefficients | None,
          s, t, w) -> Field:
    """The family at the parameter points (s[i], t[i], w[i]): hypersurface
    points, center points, radii and, for non-null families, the
    closed-form K, H with the mask of closed-form singular points.

    The tables are built on the rows themselves (``field_tables``, then
    ``field_points`` and ``field_rows`` reading row i of both), so rows
    that repeat an s derive it once each; a caller evaluating on a product
    of s values and (t, w) pairs states it to the stages instead.  Regime
    violations anywhere in the batch raise ``RegimeError``; closed-form
    poles only set ``singular``.  Each point's values are the same bits
    whatever batch it is evaluated in.
    """
    s, t, w = np.broadcast_arrays(*(np.asarray(x, dtype=float).ravel()
                                    for x in (s, t, w)))
    tables = field_tables(family, curve, radius, shape, nc, s, t, w)
    rows = np.arange(len(s))
    return Field(field_points(tables, rows, rows),
                 *field_rows(tables, rows, rows))


def evaluate_point(family: CanalFamily, curve: CurveSpec, radius: RadiusSpec,
                   shape: ShapeSpec | None, nc: NullCoefficients | None,
                   s: float, t: float, w: float) -> np.ndarray:
    """The hypersurface point C(s,t,w) as a (4,) vector: row 0 of
    ``field`` at the one point."""
    return field(family, curve, radius, shape, nc, [s], [t], [w]).points[0]


# ---------------------------------------------------------------------------
# Closed-form curvatures
#
# With q = r'^2, a variant's row of _CLOSED_FORMS gives m, the sign of
# q2 = +-r'', the shape term G (+-2g for pseudo null centers, +-1 for
# partially null ones), a sign sigma of K and H, which is also the sign
# of the K-H relation 3H - r^2 K + sigma 2/r, and per center class the
# fiber's function pair (T, mate).  T is the branch-signed trig value of f
# (see ``_trig``); sigma lambda is the sign of the forms' normal against
# the radial direction (``closed_form_gauge``).  Where m > 0 (the regime),
# with a = m - r q2, c = 2m - 3 r q2, u = r sqrt(m) k1 T and the shared
# denominator D = a G - u:
#
#   K = sigma (q2 G + sqrt(m) k1 T) / (r^2 D)
#   H = sigma (3u - c G) / (3 r D)
#
# Multiplied out, K is D (q2 G + sqrt(m) k1 T) / (r^2 D^2) and H is
# D+ (3u - c G) / (3 r D D+) with D+ = a G + u: the common factors cancel,
# so only D = 0 is a pole.  T1, T2, T3 and T4 take the rows of C1, C2, C3
# and C5 (the same G, sigma, lambda and trig pair); at r' = r'' = 0, where
# m = a = 1, c = 2 and q2 = 0, the formula is the tubular pair
# K = sigma k1 T / (r^2 (G - r k1 T)), H = sigma (3 r k1 T - 2G) /
# (3 r (G - r k1 T)).  The forms take broadcastable arrays; ``guard``
# divides and marks the points where D vanishes at the numerator's scale.

#: Per variant: m = m0 + mq q and q2 = e2 r'', G / 2g for pseudo null
#: centers, G for partially null ones, sigma, and the (T, mate) function
#: pairs for pseudo null and partially null centers.
_Row = namedtuple("_Row", "m0 mq e2 pseudo partial sigma pseudo_trig "
                          "partial_trig")
_SIN, _COS = (math.sin, math.cos), (math.cos, math.sin)
_SINH, _COSH = (math.sinh, math.cosh), (math.cosh, math.sinh)
_CLOSED_FORMS = {
    Variant.C1: _Row(+1.0, -1.0, +1.0, +1.0, +1.0, +1.0, _SIN, _SIN),
    Variant.C2: _Row(+1.0, -1.0, +1.0, +1.0, +1.0, -1.0, _COS, _COS),
    Variant.C3: _Row(+1.0, -1.0, +1.0, -1.0, +1.0, +1.0, _SINH, _COSH),
    Variant.C4: _Row(-1.0, +1.0, -1.0, +1.0, -1.0, +1.0, _COSH, _SINH),
    Variant.C5: _Row(+1.0, +1.0, -1.0, -1.0, +1.0, -1.0, _COSH, _SINH),
}
_CLOSED_FORMS.update((tube, _CLOSED_FORMS[canal]) for tube, canal in (
    (Variant.T1, Variant.C1), (Variant.T2, Variant.C2),
    (Variant.T3, Variant.C3), (Variant.T4, Variant.C5)))


def closed_form_gauge(variant: Variant) -> int:
    """Sign relating a variant's closed-form normal to the radial direction
    (C - gamma)/r: sigma lambda of the variant's row, -1 on C2 and T2,
    whose forms are stated relative to its negative; 1 for null variants,
    which have no closed forms."""
    return (1 if variant.is_null_variant
            else int(_CLOSED_FORMS[variant].sigma) * variant.lam)


def _guard_into(bad):
    def guard(num, den):
        # the scale is built in place and dropped before the quotient is
        # made, so at most two temporaries of the closed forms' size live
        scale = np.fmax(1.0, np.abs(num))
        scale *= DENOM_TOL
        np.logical_or(bad, np.abs(den) <= scale, out=bad)
        del scale
        return num / den
    return guard


def _canal_kh(row, k1, r, r1, r2, T, G):
    """The K factor q2 G + sqrt(m) k1 T, the H factor 3u - c G and the
    shared denominator D = a G - u, before sigma."""
    m = row.m0 + row.mq * (r1 * r1)
    sm = np.sqrt(m)
    q2 = row.e2 * r2
    u = r * sm * k1 * T
    return (q2 * G + sm * k1 * T, 3.0 * u - (2.0 * m - 3.0 * r * q2) * G,
            (m - r * q2) * G - u)


def _closed(family: CanalFamily, k1, r, r1, r2, T, g):
    """K, H and the singular mask of a non-null family's closed form."""
    bad = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in
                                         (k1, r, r1, r2, T, g))), dtype=bool)
    guard = _guard_into(bad)
    row = _CLOSED_FORMS[family.variant]
    with np.errstate(all="ignore"):
        G = (row.pseudo * (2.0 * g)
             if family.curve_class is CurveClass.PSEUDO_NULL else row.partial)
        p_k, p_h, D = _canal_kh(row, k1, r, r1, r2, T, G)
        K, H = guard(p_k, r * r * D), guard(p_h, 3.0 * r * D)
    return row.sigma * K, row.sigma * H, bad


def curvature_closed(family: CanalFamily, k1: float, r_jet, f: float,
                     g: float) -> CurvaturePair:
    """Gaussian and mean curvature from the family's closed form.

    ``r_jet`` is (r, r', r'') or longer.  Requires only the values of the
    shape functions, not their partials.  Raises UnsupportedFamilyError for
    null-center families and SingularPointError where the shared denominator
    D vanishes.
    """
    if family.variant.is_null_variant:
        raise UnsupportedFamilyError(
            "null-center families have no closed-form curvatures")
    r, r1, r2 = r_jet[0], r_jet[1], r_jet[2]
    _radial_scale(family.variant, r, r1)  # regime checks on r and r'
    one = [np.array([x], dtype=float) for x in (k1, r, r1, r2, f, g)]
    with np.errstate(all="ignore"):
        T = _trig(family, one[4])
    K, H, bad = _closed(family, *one[:4], T, one[5])
    if bad[0]:
        raise SingularPointError(
            f"the shared denominator D vanishes at k1={k1}, r={r}, f={f}, "
            f"g={g}")
    return CurvaturePair(float(K[0]), float(H[0]))


# ---------------------------------------------------------------------------
# Algebraic relations and condition residuals

def relation_residual(pair: CurvaturePair, r: float | np.ndarray,
                      family: CanalFamily) -> float | np.ndarray:
    """Left side of the linear K-H relation 3H - r^2 K + sigma 2/r, at one
    point or elementwise at arrays of points, for every family with closed
    forms, canal and tubular alike (a canal hypersurface's K and H both
    follow from its meridian curvature and r)."""
    if family.variant.is_null_variant:
        raise UnsupportedFamilyError(
            "K-H relations cover pseudo null and partially null variants "
            "only")
    sigma = _CLOSED_FORMS[family.variant].sigma
    return 3.0 * pair.H - r * r * pair.K + sigma * 2.0 / r


#: Names of the flatness (0) and minimality (1) conditions in messages.
_CONDITIONS = (("flatness", "flat"), ("minimality", "minimal"))


def _condition_residual(which: int, family: CanalFamily, r_jet, k1: float,
                        f: float | None, g: float | None) -> float:
    """Left side of the flatness (``which`` 0) or minimality (1) condition
    of pseudo null C1 or partially null C5.  Straight centers (|k1| <=
    1e-12) have conditions in r alone; on a curved C1 center it is the
    K or H factor over the shared denominator (k1 = 1, T = sin f, G = 2g),
    which is homogeneous of degree 1 in (T, G), so under g = sin f it is
    taken at T = 1, G = 2: the factor over sin f."""
    noun, adjective = _CONDITIONS[which]
    c1 = (family.curve_class is CurveClass.PSEUDO_NULL
          and family.variant is Variant.C1)
    if not c1 and not (family.curve_class is CurveClass.PARTIALLY_NULL
                       and family.variant is Variant.C5):
        raise UnsupportedFamilyError(
            f"no {noun} condition for {family.curve_class.value} "
            f"{family.variant.value}")
    r, r1, r2 = r_jet[0], r_jet[1], r_jet[2]
    if abs(k1) <= 1e-12:
        if which == 0:
            return r2
        return (2.0 - 2.0 * r1 * r1 - 3.0 * r * r2 if c1
                else 2.0 + 2.0 * r1 * r1 + 3.0 * r * r2)
    if not c1:
        raise UnsupportedFamilyError(
            f"partially null C5 cannot be {adjective} for k1 != 0")
    if f is None or g is None:
        raise RegimeError(f"curved-center {noun} requires f, g values")
    _radial_scale(Variant.C1, r, r1)  # regime checks on r and r'
    T, G = ((1.0, 2.0) if abs(g - math.sin(f)) <= 1e-9
            else (math.sin(f), 2.0 * g))
    return float(_canal_kh(_CLOSED_FORMS[Variant.C1], 1.0, r, r1, r2, T,
                           G)[which])


def flat_residual(family: CanalFamily, r_jet, k1: float,
                  f: float | None = None, g: float | None = None) -> float:
    """Left side of the flatness condition governing the family/case.

    Pseudo null C1: r'' for straight centers; for curved ones the K factor
    q2 G + sqrt(m) k1 T of the closed form, divided by sin f under
    g = sin f.  Partially null C5: r'' for straight centers
    (flatness is impossible for curved ones, reported as unsupported).
    """
    return _condition_residual(0, family, r_jet, k1, f, g)


def minimal_residual(family: CanalFamily, r_jet, k1: float,
                     f: float | None = None, g: float | None = None) -> float:
    """Left side of the minimality condition governing the family/case.

    Pseudo null C1: 2 - 2r'^2 - 3rr'' for straight centers; for curved ones
    the H factor 3u - c G of the closed form, divided by sin f under
    g = sin f.
    Partially null C5: 2 + 2r'^2 + 3rr'' for straight centers.
    """
    return _condition_residual(1, family, r_jet, k1, f, g)


def null_constraint_residual(a1: float, a2: float, a4: float, r: float,
                             r1: float, lam: int) -> float:
    """a2^2 + a4^2 - lambda*r*(r + 2*a1*r'): zero for coefficients built
    from NullCoefficients, generally nonzero for raw external data."""
    return a2 * a2 + a4 * a4 - lam * r * (r + 2.0 * a1 * r1)


# ---------------------------------------------------------------------------
# Weingarten residuals for tubular families


class WeingartenReport(NamedTuple):
    """Max mixed-Jacobian residuals |H_x K_y - H_y K_x| over a grid: the
    result of ``weingarten_residuals``, which stays for the benchmark's
    tracer only."""

    st: float
    sw: float
    tw: float
    points: int
    singular: int


def weingarten_residuals(tables: FieldTables, s_ix, tw_ix, step: float
                         ) -> WeingartenReport:
    """Mixed Jacobians of (H, K) in the parameter pairs at the points of a
    grid, by central differences of the closed forms with step ``step``.

    s_ix and tw_ix are (6, n_s, 1) and (6, 1, n_tw) index blocks into the
    tables, one block per offset in the order s + h, s - h, t + h, t - h,
    w + h, w - h: rows 1-6 of ``oracle.STENCIL``, i.e. blocks [1:7] of
    ``oracle.grid_stencil``.  The closed forms at all six offsets are one
    ``field_rows`` call, so an s-only or (t, w)-only term is computed once
    per axis value.  A grid point is singular when any of its six
    closed-form evaluations is.

    ``verify`` does not call this: with r constant, the K-H relation
    (``relation_residual``, which covers the tubular variants) makes every
    mixed Jacobian vanish.  It stays only because the benchmark's tracer
    (``perfbench/tracer.py``) binds it by name; it goes when the tracer
    stops doing so (ROADMAP.md).
    """
    variant = tables.family.variant
    if not variant.is_tubular or variant.is_null_variant:
        raise UnsupportedFamilyError(
            "Weingarten residuals are defined for tubular variants with "
            "closed forms")
    with np.errstate(all="ignore"):
        K, H, singular = field_rows(tables, s_ix, tw_ix)[2:]
        # (H_x, K_x) for x = s, t, w
        H = (H[0::2] - H[1::2]) / (2 * step)
        K = (K[0::2] - K[1::2]) / (2 * step)
        ok = ~singular.any(axis=0)
        worst = [float(np.fmax.reduce(np.abs(H[i] * K[j] - H[j] * K[i]),
                                      axis=None, where=ok, initial=0.0))
                 for i, j in ((0, 1), (0, 2), (1, 2))]
    n_points = int(np.count_nonzero(ok))
    return WeingartenReport(*worst, n_points, ok.size - n_points)
