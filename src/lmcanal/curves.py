"""Center curves and their moving frames.

Three causal classes of curves in E^4_1 are supported, each with its own
frame ODE system and Gram table for the frame vectors (F1, F2, F3, F4)
and curvatures (k1, k2, k3):

* pseudo null   -- spacelike unit tangent, null principal normal;
                   k1 is 0 (straight line) or 1, <F2,F4> = 1.
* partially null - spacelike unit tangent and principal normal, null
                   binormal; k3 = 0 identically, <F3,F4> = 1.
* null          -- null tangent, arclength normalized by <gamma'',gamma''> = 1;
                   k1 is 0 or 1, <F1,F3> = 1.

Frames are derived numerically from order-4 jets of the curve components.
The frame vectors that the Gram tables leave underdetermined are fixed by
documented gauge choices (see ``derive_frame``); builtin example curves
carry their analytic frames as reference data and pin the gauge so derived
and analytic frames agree componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import expr
from .minkowski import Vec4, inner, triple_cross

#: Band for "this quadratic form should vanish" checks on normalized data.
NULL_TOL = 1e-9
#: Band for unit-norm checks of spacelike tangents / normals.
UNIT_TOL = 1e-6
#: Normalizations smaller than this are treated as degenerate.
DEGENERATE_TOL = 1e-9


class CurveClass(Enum):
    PSEUDO_NULL = "pseudo-null"
    PARTIALLY_NULL = "partially-null"
    NULL = "null"


# Gram tables <Fi, Fj> for each class, row/column order F1..F4.
GRAM_TABLES = {
    CurveClass.PSEUDO_NULL: (
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
    ),
    CurveClass.PARTIALLY_NULL: (
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (0.0, 0.0, 1.0, 0.0),
    ),
    CurveClass.NULL: (
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    ),
}


class CurveError(Exception):
    """Base class for curve/frame errors."""


class DegenerateCurveError(CurveError):
    """A normalization required by the frame construction vanishes
    (straight line where k1 = 1 is expected, vanishing k2, ...)."""


class ClassMismatchError(CurveError):
    """Computed causal characters contradict the declared curve class."""


class UnknownCurveError(CurveError):
    """Builtin curve name is not known."""


@dataclass(frozen=True)
class ReferenceFrame:
    """Analytic frame and curvature expressions attached to builtin curves."""

    f1: tuple
    f2: tuple
    f3: tuple
    f4: tuple
    k1: object
    k2: object
    k3: object

    def frame_at(self, s: float) -> tuple[Vec4, Vec4, Vec4, Vec4]:
        def vec(comps):
            return Vec4(*(expr.eval_value(c, s=s) for c in comps))
        return vec(self.f1), vec(self.f2), vec(self.f3), vec(self.f4)


@dataclass(frozen=True, eq=False)
class CurveSpec:
    """A center curve: four component expressions in s plus its causal class.

    ``completion_frame`` supplies a constant class-compatible frame for
    straight lines (k1 = 0), which have no canonical Frenet construction.
    ``f3_gauge`` fixes the free scale of the null binormal direction for
    partially null curves (F3 is parallel-constant because k3 = 0; only its
    scale is conventional).
    """

    components: tuple
    curve_class: CurveClass
    name: str | None = None
    reference: ReferenceFrame | None = None
    f3_gauge: Vec4 | None = None
    completion_frame: tuple | None = None

    def point(self, s: float) -> Vec4:
        return Vec4(*(expr.eval_value(c, s=s) for c in self.components))

    def jets(self, s: float) -> tuple:
        return tuple(expr.eval_s(c, s) for c in self.components)


@dataclass(frozen=True)
class FrenetData:
    """Frame, curvatures and curve point gamma(s) at one parameter value."""

    s: float
    f1: Vec4
    f2: Vec4
    f3: Vec4
    f4: Vec4
    k1: float
    k2: float
    k3: float
    point: Vec4 | None = None

    def vectors(self) -> tuple[Vec4, Vec4, Vec4, Vec4]:
        return (self.f1, self.f2, self.f3, self.f4)


def frenet_rhs(curve_class: CurveClass, fr: FrenetData) -> tuple[Vec4, Vec4, Vec4, Vec4]:
    """Right-hand sides (F1', F2', F3', F4') of the class frame ODE system."""
    f1, f2, f3, f4 = fr.vectors()
    k1, k2, k3 = fr.k1, fr.k2, fr.k3
    if curve_class is CurveClass.PSEUDO_NULL:
        return (k1 * f2,
                k2 * f3,
                k3 * f2 - k2 * f4,
                -k1 * f1 - k3 * f3)
    if curve_class is CurveClass.PARTIALLY_NULL:
        return (k1 * f2,
                -k1 * f1 + k2 * f3,
                k3 * f3,
                -k2 * f2 - k3 * f4)
    return (k1 * f2,
            k2 * f1 - k1 * f3,
            -k2 * f2 + k3 * f4,
            -k3 * f1)


# ---------------------------------------------------------------------------
# Builtin example curves

def _exprs(*texts: str) -> tuple:
    return tuple(expr.parse(t) for t in texts)


def _builtin_pseudo_null() -> CurveSpec:
    ref = ReferenceFrame(
        f1=_exprs("sinh(2*s)/sqrt(2)", "cosh(2*s)/sqrt(2)",
                  "cos(2*s)/sqrt(2)", "sin(2*s)/sqrt(2)"),
        f2=_exprs("sqrt(2)*cosh(2*s)", "sqrt(2)*sinh(2*s)",
                  "-sqrt(2)*sin(2*s)", "sqrt(2)*cos(2*s)"),
        f3=_exprs("sinh(2*s)/sqrt(2)", "cosh(2*s)/sqrt(2)",
                  "-cos(2*s)/sqrt(2)", "-sin(2*s)/sqrt(2)"),
        f4=_exprs("-cosh(2*s)/(2*sqrt(2))", "-sinh(2*s)/(2*sqrt(2))",
                  "-sin(2*s)/(2*sqrt(2))", "cos(2*s)/(2*sqrt(2))"),
        k1=expr.parse("1"), k2=expr.parse("4"), k3=expr.parse("0"),
    )
    return CurveSpec(
        components=_exprs("cosh(2*s)/(2*sqrt(2))", "sinh(2*s)/(2*sqrt(2))",
                          "sin(2*s)/(2*sqrt(2))", "-cos(2*s)/(2*sqrt(2))"),
        curve_class=CurveClass.PSEUDO_NULL,
        name="pseudo-null-example",
        reference=ref,
    )


def _builtin_partially_null() -> CurveSpec:
    ref = ReferenceFrame(
        f1=_exprs("exp(s)", "exp(s)", "-sin(2*s)", "cos(2*s)"),
        f2=_exprs("exp(s)/2", "exp(s)/2", "-cos(2*s)", "-sin(2*s)"),
        f3=_exprs("5/2", "5/2", "0", "0"),
        f4=_exprs("-exp(2*s)/4 - 1/5", "-exp(2*s)/4 + 1/5",
                  "exp(s)*(cos(2*s) + 2*sin(2*s))/5",
                  "exp(s)*(sin(2*s) - 2*cos(2*s))/5"),
        k1=expr.parse("2"), k2=expr.parse("exp(s)"), k3=expr.parse("0"),
    )
    return CurveSpec(
        components=_exprs("exp(s)", "exp(s)", "cos(2*s)/2", "sin(2*s)/2"),
        curve_class=CurveClass.PARTIALLY_NULL,
        name="partially-null-example",
        reference=ref,
        # F3 is the constant null direction (1,1,0,0); the analytic frame
        # carries it with scale 5/2 and F4 is scaled to keep <F3,F4> = 1.
        f3_gauge=Vec4(2.5, 2.5, 0.0, 0.0),
    )


def _builtin_null() -> CurveSpec:
    ref = ReferenceFrame(
        f1=_exprs("cosh(s)/sqrt(2)", "sinh(s)/sqrt(2)",
                  "cos(s)/sqrt(2)", "-sin(s)/sqrt(2)"),
        f2=_exprs("sinh(s)/sqrt(2)", "cosh(s)/sqrt(2)",
                  "-sin(s)/sqrt(2)", "-cos(s)/sqrt(2)"),
        f3=_exprs("-cosh(s)/sqrt(2)", "-sinh(s)/sqrt(2)",
                  "cos(s)/sqrt(2)", "-sin(s)/sqrt(2)"),
        f4=_exprs("sinh(s)/sqrt(2)", "cosh(s)/sqrt(2)",
                  "sin(s)/sqrt(2)", "cos(s)/sqrt(2)"),
        k1=expr.parse("1"), k2=expr.parse("0"), k3=expr.parse("-1"),
    )
    return CurveSpec(
        components=_exprs("sinh(s)/sqrt(2)", "cosh(s)/sqrt(2)",
                          "sin(s)/sqrt(2)", "cos(s)/sqrt(2)"),
        curve_class=CurveClass.NULL,
        name="null-example",
        reference=ref,
    )


_BUILTINS = {
    "pseudo-null-example": _builtin_pseudo_null,
    "partially-null-example": _builtin_partially_null,
    "null-example": _builtin_null,
}


def builtin(name: str) -> CurveSpec:
    """Return a builtin example curve with analytic reference frame."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownCurveError(
            f"unknown builtin curve {name!r}; "
            f"known: {sorted(_BUILTINS)}") from None
    return factory()


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


# ---------------------------------------------------------------------------
# Frame derivation

def _jet_vectors(curve: CurveSpec, s: float):
    jets = (j.derivatives() for j in curve.jets(s))
    return [Vec4(*d) for d in zip(*jets)]  # gamma, gamma', ..., gamma''''


def _null_mate(a: Vec4, b: Vec4, mate: Vec4) -> Vec4:
    """The null vector x with <x, a> = <x, b> = 0 and <x, mate> = 1.

    ``a``, ``b`` are unit spacelike and ``mate`` is null and orthogonal to
    both, so the solutions of the three linear conditions form a line
    x0 + c*mate on which <x, x> is linear in c.  Start from y with
    <y, mate> = |mate|_E^2 > 0, project out span{a, b} with their Gram
    table, scale the pairing to 1 and move along mate to the null point.
    """
    y = Vec4(-mate.x1, mate.x2, mate.x3, mate.x4)
    gaa, gab, gbb = inner(a, a), inner(a, b), inner(b, b)
    det = gaa * gbb - gab * gab
    if abs(det) < DEGENERATE_TOL:
        raise DegenerateCurveError("frame vectors are linearly dependent")
    ya, yb = inner(y, a), inner(y, b)
    ca, cb = (gbb * ya - gab * yb) / det, (gaa * yb - gab * ya) / det
    y = y - ca * a - cb * b
    p = inner(y, mate)
    if not p > DEGENERATE_TOL * mate.euclid_norm() ** 2:
        raise DegenerateCurveError("cannot normalize null frame partner")
    y = y / p
    return y - (inner(y, y) / 2.0) * mate


def _lex_sign(v: Vec4) -> float:
    for c in v.components():
        if abs(c) > 1e-12:
            return 1.0 if c > 0 else -1.0
    return 1.0


def _derive_pseudo_null(curve: CurveSpec, s: float) -> FrenetData:
    g, d1, d2, d3, d4 = _jet_vectors(curve, s)
    if abs(inner(d1, d1) - 1.0) > UNIT_TOL:
        raise ClassMismatchError(
            f"tangent is not spacelike unit at s={s}: <g',g'>={inner(d1, d1)}")
    if d2.euclid_norm() < DEGENERATE_TOL:
        raise DegenerateCurveError(
            f"straight line at s={s}: k1=0 branch has no canonical frame")
    if abs(inner(d2, d2)) > NULL_TOL * max(1.0, d2.euclid_norm() ** 2):
        raise ClassMismatchError(
            f"principal normal is not null at s={s}: <g'',g''>={inner(d2, d2)}")
    f1, f2 = d1, d2
    q3 = inner(d3, d3)
    if q3 <= DEGENERATE_TOL:
        raise DegenerateCurveError(f"vanishing second curvature at s={s}")
    k2 = math.sqrt(q3)  # gauge: k2 > 0
    f3 = d3 / k2
    f4 = _null_mate(f1, f3, f2)
    k3 = inner(d4, f4) / k2
    return FrenetData(s, f1, f2, f3, f4, 1.0, k2, k3, g)


def _derive_partially_null(curve: CurveSpec, s: float) -> FrenetData:
    g, d1, d2, d3, d4 = _jet_vectors(curve, s)
    if abs(inner(d1, d1) - 1.0) > UNIT_TOL:
        raise ClassMismatchError(
            f"tangent is not spacelike unit at s={s}: <g',g'>={inner(d1, d1)}")
    q2 = inner(d2, d2)
    if d2.euclid_norm() < DEGENERATE_TOL:
        raise DegenerateCurveError(
            f"straight line at s={s}: supply a completion frame")
    if q2 <= 0:
        raise ClassMismatchError(
            f"principal normal is not spacelike at s={s}: <g'',g''>={q2}")
    k1 = math.sqrt(q2)
    f1, f2 = d1, d2 / k1
    # u = F2' + k1*F1 = k2*F3 points along the constant null binormal.
    k1p = inner(d2, d3) / k1
    u = (d3 / k1) - (k1p / (k1 * k1)) * d2 + k1 * d1
    if u.euclid_norm() < DEGENERATE_TOL:
        raise DegenerateCurveError(f"vanishing second curvature at s={s}")
    if abs(inner(u, u)) > NULL_TOL * max(1.0, u.euclid_norm() ** 2):
        raise ClassMismatchError(
            f"binormal direction is not null at s={s}: <u,u>={inner(u, u)}")
    if curve.f3_gauge is not None:
        f3 = curve.f3_gauge
        align = abs(inner_euclid_cos(u, f3))
        if align < 1.0 - 1e-6:
            raise ClassMismatchError(
                f"f3 gauge vector is not parallel to the binormal at s={s}")
    else:
        f3 = (_lex_sign(u) / u.euclid_norm()) * u
    f4 = _null_mate(f1, f2, f3)
    k2 = inner(u, f4)  # = <F2', F4> since <F1, F4> = 0
    return FrenetData(s, f1, f2, f3, f4, k1, k2, 0.0, g)


def inner_euclid_cos(u: Vec4, v: Vec4) -> float:
    """Euclidean direction cosine, used only for gauge validation."""
    uu, vv = u.euclid_norm(), v.euclid_norm()
    if uu == 0 or vv == 0:
        return 0.0
    dot = sum(a * b for a, b in zip(u.components(), v.components()))
    return dot / (uu * vv)


def _derive_null(curve: CurveSpec, s: float) -> FrenetData:
    g, d1, d2, d3, d4 = _jet_vectors(curve, s)
    if abs(inner(d1, d1)) > NULL_TOL * max(1.0, d1.euclid_norm() ** 2):
        raise ClassMismatchError(
            f"tangent is not null at s={s}: <g',g'>={inner(d1, d1)}")
    if d2.euclid_norm() < DEGENERATE_TOL:
        raise DegenerateCurveError(
            f"straight null line at s={s}: supply a completion frame")
    if abs(inner(d2, d2) - 1.0) > UNIT_TOL:
        raise ClassMismatchError(
            f"curve is not arclength parametrized at s={s}: "
            f"<g'',g''>={inner(d2, d2)}")
    f1, f2 = d1, d2
    denom = inner(d1, d3)  # equals -<g'',g''> = -1 for arclength curves
    if abs(denom) < DEGENERATE_TOL:
        raise DegenerateCurveError(f"degenerate null frame at s={s}")
    k2 = inner(d3, d3) / (2.0 * denom)
    f3 = k2 * f1 - d3
    # Orientation gauge: F4 = -(F1 x F2 x F3), matching the builtin frame.
    f4 = -triple_cross(f1, f2, f3)
    q4 = inner(f4, f4)
    if q4 <= DEGENERATE_TOL:
        raise DegenerateCurveError(f"degenerate trinormal at s={s}")
    f4 = f4 / math.sqrt(q4)
    k3 = -inner(d4, f4)
    return FrenetData(s, f1, f2, f3, f4, 1.0, k2, k3, g)


def derive_frame(curve: CurveSpec, s: float) -> FrenetData:
    """Frenet frame and curvatures of the curve at s.

    The construction is pure and is not cached: batched callers derive one
    frame per distinct s of their batch.  ``point`` is gamma(s) from the
    same jets.  Gauge conventions: pseudo null k2 > 0; partially null F3
    from ``f3_gauge`` or the Euclidean-unit lexicographically-positive null
    direction; null F4 = -(F1 x F2 x F3).  Straight lines require a
    completion frame.
    """
    s = float(s)
    if curve.completion_frame is not None:
        f1, f2, f3, f4 = curve.completion_frame
        g, d1 = _jet_vectors(curve, s)[:2]
        if (d1 - f1).euclid_norm() > 1e-9:
            raise ClassMismatchError(
                "completion frame tangent differs from the curve tangent")
        return FrenetData(s, f1, f2, f3, f4, 0.0, 0.0, 0.0, g)
    if curve.curve_class is CurveClass.PSEUDO_NULL:
        return _derive_pseudo_null(curve, s)
    if curve.curve_class is CurveClass.PARTIALLY_NULL:
        return _derive_partially_null(curve, s)
    return _derive_null(curve, s)


# ---------------------------------------------------------------------------
# Frame verification


@dataclass(frozen=True)
class FrameReport:
    """Residuals of one frame against its class Gram table and ODE system."""

    s: float
    gram_residual: float
    gram_worst: tuple[int, int]
    ode_residual: float
    gram_tol: float
    ode_tol: float

    @property
    def passed(self) -> bool:
        return (self.gram_residual <= self.gram_tol
                and self.ode_residual <= self.ode_tol)


def gram_residual(frame: FrenetData, curve_class: CurveClass):
    """Max entrywise deviation of <Fi,Fj> from the class Gram table."""
    table = GRAM_TABLES[curve_class]
    vecs = frame.vectors()
    worst, where = 0.0, (0, 0)
    for i in range(4):
        for j in range(4):
            r = abs(inner(vecs[i], vecs[j]) - table[i][j])
            if r > worst:
                worst, where = r, (i + 1, j + 1)
    return worst, where


def verify_frame(frame: FrenetData, curve_class: CurveClass, curve: CurveSpec,
                 step: float = 1e-4, gram_tol: float = 1e-8,
                 ode_tol: float = 1e-5) -> FrameReport:
    """Check a frame against the Gram table and the frame ODE system.

    The ODE residual compares central differences of the derived frame at
    s +/- step with the class right-hand side assembled from ``frame``.
    Failures are reported, never raised.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    gres, gworst = gram_residual(frame, curve_class)
    plus = derive_frame(curve, frame.s + step)
    minus = derive_frame(curve, frame.s - step)
    rhs = frenet_rhs(curve_class, frame)
    ode_res = 0.0
    for fp, fm, r in zip(plus.vectors(), minus.vectors(), rhs):
        fd = (fp - fm) / (2.0 * step)
        diff = fd - r
        ode_res = max(ode_res, max(abs(c) for c in diff.components()))
    return FrameReport(frame.s, gres, gworst, ode_res, gram_tol, ode_tol)
