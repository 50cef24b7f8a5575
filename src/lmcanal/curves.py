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

Frames are derived numerically from order-4 jets of the curve components,
for a whole array of parameter values at once (``derive_frames``).  The
frame vectors that the Gram tables leave underdetermined are fixed by
documented gauge choices (see ``derive_frames``), pinned so that the
derived frames of the builtin example curves agree componentwise with
their analytic frames (tests/test_curves.py).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from . import expr
from .expr import refuse
from .minkowski import inner_rows, triple_cross_rows

#: Band for "this quadratic form should vanish" checks on normalized data.
NULL_TOL = 1e-9
#: Band for unit-norm checks of spacelike tangents / normals.
UNIT_TOL = 1e-6
#: Normalizations smaller than this are treated as degenerate.
DEGENERATE_TOL = 1e-9
#: Frame check settings: the central-difference step of the frame ODE
#: residual (``frame_residuals`` reads it at call time) and the bands of
#: the Gram and ODE residuals.
FRAME_STEP = 1e-4
GRAM_TOL = 1e-8
ODE_TOL = 1e-5


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


class CurveSpec(NamedTuple):
    """A center curve: four component expressions in s plus its causal class.

    ``completion_frame`` supplies a constant class-compatible frame for
    straight lines (k1 = 0), which have no canonical Frenet construction,
    as four 4-tuples of floats.  ``f3_gauge``, a 4-tuple of floats, fixes
    the free scale of the null binormal direction for partially null curves
    (F3 is parallel-constant because k3 = 0; only its scale is
    conventional).
    """

    components: tuple
    curve_class: CurveClass
    name: str | None = None
    f3_gauge: tuple | None = None
    completion_frame: tuple | None = None

    def point(self, s: float) -> np.ndarray:
        """gamma(s) as a (4,) vector."""
        return np.array([expr.eval_value(c, s=s) for c in self.components],
                        dtype=float)

    def jets(self, s) -> tuple:
        return tuple(expr.eval_s(c, s) for c in self.components)


# ---------------------------------------------------------------------------
# Builtin example curves

def _exprs(*texts: str) -> tuple:
    return tuple(expr.parse(t) for t in texts)


def _builtin_pseudo_null() -> CurveSpec:
    return CurveSpec(
        components=_exprs("cosh(2*s)/(2*sqrt(2))", "sinh(2*s)/(2*sqrt(2))",
                          "sin(2*s)/(2*sqrt(2))", "-cos(2*s)/(2*sqrt(2))"),
        curve_class=CurveClass.PSEUDO_NULL,
        name="pseudo-null-example",
    )


def _builtin_partially_null() -> CurveSpec:
    return CurveSpec(
        components=_exprs("exp(s)", "exp(s)", "cos(2*s)/2", "sin(2*s)/2"),
        curve_class=CurveClass.PARTIALLY_NULL,
        name="partially-null-example",
        # F3 is the constant null direction (1,1,0,0); the analytic frame
        # carries it with scale 5/2 and F4 is scaled to keep <F3,F4> = 1.
        f3_gauge=(2.5, 2.5, 0.0, 0.0),
    )


def _builtin_null() -> CurveSpec:
    return CurveSpec(
        components=_exprs("sinh(s)/sqrt(2)", "cosh(s)/sqrt(2)",
                          "sin(s)/sqrt(2)", "cos(s)/sqrt(2)"),
        curve_class=CurveClass.NULL,
        name="null-example",
    )


_BUILTINS = {
    "pseudo-null-example": _builtin_pseudo_null,
    "partially-null-example": _builtin_partially_null,
    "null-example": _builtin_null,
}


def builtin(name: str) -> CurveSpec:
    """Return a builtin example curve."""
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
# Frame derivation, on rows: each vector is an (n, 4) array with one s per
# row, combined by numpy's correctly rounded + - * /, square and sqrt only,
# so a row gets the same bits in any batch.


class FrameRows(NamedTuple):
    """Curve points and frame vectors F1..F4 at n parameter values as
    (n, 4) rows, views of component-major (4, n) arrays where computed
    from the curve's jets, and the curvatures k1..k3 as (n,) arrays; from
    ``derive_frame``, one frame as (4,) vectors and float curvatures."""

    gamma: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    f4: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray


def _euclid(v):
    """Euclidean length of each row, the auxiliary norm of gauge fixing."""
    q = v * v
    return np.sqrt(q[:, 0] + q[:, 1] + q[:, 2] + q[:, 3])


def _not_null(q, v):
    """|<v, v>| = |q| above the null band at the Euclidean scale of v."""
    return np.abs(q) > NULL_TOL * np.fmax(1.0, np.square(_euclid(v)))


def _null_mate(a, b, mate, s):
    """Rows x, null, with <x, a> = <x, b> = 0 and <x, mate> = 1.

    ``a``, ``b`` are unit spacelike and ``mate`` is null and orthogonal to
    both, so the solutions of the three linear conditions form a line
    x0 + c*mate on which <x, x> is linear in c.  Start from y with
    <y, mate> = |mate|_E^2 > 0, project out span{a, b} with their Gram
    table, scale the pairing to 1 and move along mate to the null point.
    """
    y = np.concatenate([-mate[:, :1], mate[:, 1:]], axis=1)
    gaa, gab, gbb = inner_rows(a, a), inner_rows(a, b), inner_rows(b, b)
    det = gaa * gbb - gab * gab
    refuse(DegenerateCurveError, np.abs(det) < DEGENERATE_TOL,
           "frame vectors are linearly dependent at s={}", s)
    ya, yb = inner_rows(y, a), inner_rows(y, b)
    ca, cb = (gbb * ya - gab * yb) / det, (gaa * yb - gab * ya) / det
    y = y - ca[:, None] * a - cb[:, None] * b
    p = inner_rows(y, mate)
    refuse(DegenerateCurveError,
           ~(p > DEGENERATE_TOL * np.square(_euclid(mate))),
           "cannot normalize null frame partner at s={}", s)
    y = y / p[:, None]
    return y - (inner_rows(y, y) / 2.0)[:, None] * mate


def _lex_sign(u):
    """Per row: the sign of the first component above 1e-12 in modulus."""
    big = np.abs(u) > 1e-12
    lead = u[np.arange(len(u)), np.argmax(big, axis=1)]
    return np.where(big.any(axis=1) & (lead < 0), -1.0, 1.0)


def _unit_tangent(s, d1):
    q1 = inner_rows(d1, d1)
    refuse(ClassMismatchError, np.abs(q1 - 1.0) > UNIT_TOL,
           "tangent is not spacelike unit at s={}: <g',g'>={}", s, q1)


def _pseudo_null_rows(curve, s, d1, d2, d3, d4):
    _unit_tangent(s, d1)
    refuse(DegenerateCurveError, _euclid(d2) < DEGENERATE_TOL,
           "straight line at s={}: k1=0 branch has no canonical frame", s)
    q2 = inner_rows(d2, d2)
    refuse(ClassMismatchError, _not_null(q2, d2),
           "principal normal is not null at s={}: <g'',g''>={}", s, q2)
    q3 = inner_rows(d3, d3)
    refuse(DegenerateCurveError, q3 <= DEGENERATE_TOL,
           "vanishing second curvature at s={}", s)
    k2 = np.sqrt(q3)  # gauge: k2 > 0
    f3 = d3 / k2[:, None]
    f4 = _null_mate(d1, f3, d2, s)
    return d1, d2, f3, f4, np.ones(len(s)), k2, inner_rows(d4, f4) / k2


def _partially_null_rows(curve, s, d1, d2, d3, d4):
    _unit_tangent(s, d1)
    q2 = inner_rows(d2, d2)
    refuse(DegenerateCurveError, _euclid(d2) < DEGENERATE_TOL,
           "straight line at s={}: supply a completion frame", s)
    refuse(ClassMismatchError, q2 <= 0,
           "principal normal is not spacelike at s={}: <g'',g''>={}", s, q2)
    k1 = np.sqrt(q2)
    f2 = d2 / k1[:, None]
    # u = F2' + k1*F1 = k2*F3 points along the constant null binormal.
    k1p = inner_rows(d2, d3) / k1
    u = d3 / k1[:, None] - (k1p / (k1 * k1))[:, None] * d2 + k1[:, None] * d1
    nu = _euclid(u)
    refuse(DegenerateCurveError, nu < DEGENERATE_TOL,
           "vanishing second curvature at s={}", s)
    quu = inner_rows(u, u)
    refuse(ClassMismatchError, _not_null(quu, u),
           "binormal direction is not null at s={}: <u,u>={}", s, quu)
    if curve.f3_gauge is not None:
        f3 = np.tile(np.array(curve.f3_gauge, dtype=float), (len(s), 1))
        # Euclidean direction cosine of u and the gauge vector
        cos = np.abs(np.sum(u * f3, axis=1)) / (nu * _euclid(f3))
        refuse(ClassMismatchError, ~(cos >= 1.0 - 1e-6),
               "f3 gauge vector is not parallel to the binormal at s={}", s)
    else:
        f3 = (_lex_sign(u) / nu)[:, None] * u
    f4 = _null_mate(d1, f2, f3, s)
    k2 = inner_rows(u, f4)  # = <F2', F4> since <F1, F4> = 0
    return d1, f2, f3, f4, k1, k2, np.zeros(len(s))


def _null_rows(curve, s, d1, d2, d3, d4):
    q1 = inner_rows(d1, d1)
    refuse(ClassMismatchError, _not_null(q1, d1),
           "tangent is not null at s={}: <g',g'>={}", s, q1)
    refuse(DegenerateCurveError, _euclid(d2) < DEGENERATE_TOL,
           "straight null line at s={}: supply a completion frame", s)
    q2 = inner_rows(d2, d2)
    refuse(ClassMismatchError, np.abs(q2 - 1.0) > UNIT_TOL,
           "curve is not arclength parametrized at s={}: <g'',g''>={}", s, q2)
    denom = inner_rows(d1, d3)  # equals -<g'',g''> = -1 for arclength curves
    refuse(DegenerateCurveError, np.abs(denom) < DEGENERATE_TOL,
           "degenerate null frame at s={}", s)
    k2 = inner_rows(d3, d3) / (2.0 * denom)
    f3 = k2[:, None] * d1 - d3
    # Orientation gauge: F4 = -(F1 x F2 x F3), matching the builtin frame.
    f4 = -triple_cross_rows(d1, d2, f3)
    q4 = inner_rows(f4, f4)
    refuse(DegenerateCurveError, q4 <= DEGENERATE_TOL,
           "degenerate trinormal at s={}", s)
    f4 = f4 / np.sqrt(q4)[:, None]
    return d1, d2, f3, f4, np.ones(len(s)), k2, -inner_rows(d4, f4)


def _completion_rows(curve, s, d1):
    frame = np.array(curve.completion_frame, dtype=float)
    refuse(ClassMismatchError, _euclid(d1 - frame[0]) > 1e-9,
           "completion frame tangent differs from the curve tangent at s={}",
           s)
    zero = np.zeros(len(s))
    return (*(np.tile(v, (len(s), 1)) for v in frame), zero, zero, zero)


_CLASS_ROWS = {CurveClass.PSEUDO_NULL: _pseudo_null_rows,
               CurveClass.PARTIALLY_NULL: _partially_null_rows,
               CurveClass.NULL: _null_rows}


def derive_frames(curve: CurveSpec, s) -> FrameRows:
    """Frenet frames, curvatures and curve points gamma(s) at the values
    of ``s``, one row each, from one jet walk per curve component.

    Each s is derived as given: batched callers pass each distinct s once.
    Gauge conventions: pseudo null k2 > 0; partially null F3 from
    ``f3_gauge`` or the Euclidean-unit lexicographically-positive null
    direction; null F4 = -(F1 x F2 x F3).  Straight lines require a
    completion frame.  A batch raises what the construction raises at its
    first failing s (``expr.refuse``).
    """
    s = np.asarray(s, dtype=float).ravel()
    g, d1, d2, d3, d4 = (np.array(d).T for d in
                         zip(*(j.derivatives() for j in curve.jets(s))))
    with np.errstate(all="ignore"):
        if curve.completion_frame is not None:
            rows = _completion_rows(curve, s, d1)
        else:
            rows = _CLASS_ROWS[curve.curve_class](curve, s, d1, d2, d3, d4)
    return FrameRows(g, *rows)


def derive_frame(curve: CurveSpec, s: float) -> FrameRows:
    """Row 0 of ``derive_frames`` at the one value s: (4,) vectors and
    float curvatures."""
    rows = derive_frames(curve, [s])
    return FrameRows(rows.gamma[0], rows.f1[0], rows.f2[0], rows.f3[0],
                     rows.f4[0], float(rows.k1[0]), float(rows.k2[0]),
                     float(rows.k3[0]))


# ---------------------------------------------------------------------------
# Frame verification, on rows


def frenet_rhs(curve_class: CurveClass, rows: FrameRows):
    """Right-hand sides (F1', F2', F3', F4') of the class frame ODE system,
    as (n, 4) rows."""
    f1, f2, f3, f4 = rows.f1, rows.f2, rows.f3, rows.f4
    k1, k2, k3 = rows.k1[:, None], rows.k2[:, None], rows.k3[:, None]
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


def gram_residual(rows: FrameRows, curve_class: CurveClass):
    """Per row: the max entrywise deviation of <Fi,Fj> from the class Gram
    table, and its 1-based (i, j) as an (n, 2) array."""
    vecs = (rows.f1, rows.f2, rows.f3, rows.f4)
    table = np.array(GRAM_TABLES[curve_class])
    dev = np.abs(np.stack([inner_rows(a, b) for a in vecs for b in vecs],
                          axis=1) - table.ravel())
    at = np.argmax(dev, axis=1)
    return dev[np.arange(len(at)), at], np.stack([at // 4, at % 4], axis=1) + 1


def frame_residuals(rows: FrameRows, curve_class: CurveClass):
    """The worst Gram table deviation and the worst frame ODE deviation
    of the first n of 3n frames, as two (n,) arrays.

    The rows are blocks at (s, s + FRAME_STEP, s - FRAME_STEP), the layout
    ``oracle.grid_stencil`` gives a verify table's s values; the ODE
    residual compares the central difference of the last two blocks with
    the class right-hand side assembled from the first.
    """
    n, extra = divmod(len(rows.k1), 3)
    if extra:
        raise ValueError(f"expected 3n frame rows (s, s + h, s - h), got "
                         f"{len(rows.k1)}")
    f = np.stack([rows.f1, rows.f2, rows.f3, rows.f4], axis=1)
    rhs = np.stack(frenet_rhs(curve_class, rows), axis=1)[:n]
    ode = np.max(np.abs((f[n:2 * n] - f[2 * n:]) / (2.0 * FRAME_STEP) - rhs),
                 axis=(1, 2))
    return gram_residual(rows, curve_class)[0][:n], ode
