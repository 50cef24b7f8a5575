"""Linear algebra of Lorentz-Minkowski 4-space E^4_1.

The ambient space is R^4 with the indefinite inner product

    <u, v> = -u1*v1 + u2*v2 + u3*v3 + u4*v4

i.e. signature (-,+,+,+) with the first coordinate timelike.  Everything
here is exact-signature and hand-expanded: the ternary cross product is
written out cofactor by cofactor so the sign pattern (-e1, e2, e3, e4)
of the defining determinant can be audited directly.  Vectors are numpy
arrays with a last axis of 4: (4,) for one vector, (N, 4) for rows.
``inner_rows`` takes any (..., 4) arrays, ``triple_cross_rows`` (N, 4) rows,
and ``triple_cross`` is its one-row adapter.
``triple_cross_rows`` orders a row triple and finds its parity by three
lexicographic comparisons, gives a NaN row for a triple holding a NaN,
and returns the (N, 4) view of a component-major (4, N) array.
"""

from __future__ import annotations

import numpy as np


def inner_rows(u, v):
    """Indefinite inner product -u1*v1 + u2*v2 + u3*v3 + u4*v4 of the
    corresponding vectors of two (..., 4) arrays."""
    return (-u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
            + u[..., 2] * v[..., 2] + u[..., 3] * v[..., 3])


def triple_cross(u, v, w):
    """Ternary cross product of E^4_1 of three (4,) vectors:
    ``triple_cross_rows`` of one row."""
    return triple_cross_rows(*(np.asarray(a, dtype=float).reshape(1, 4)
                               for a in (u, v, w)))[0]


def _before(x, y):
    """Per row of two (4, N) arrays: x is lexicographically at most y."""
    return (x[0] < y[0]) | (x[0] == y[0]) & (
        (x[1] < y[1]) | (x[1] == y[1]) & (
            (x[2] < y[2]) | (x[2] == y[2]) & (x[3] <= y[3])))


def triple_cross_rows(u, v, w):
    """Ternary cross product of corresponding rows of three (N, 4) arrays.

    Formal expansion of det[[-e1, e2, e3, e4], [u], [v], [w]] along the
    first row.  Each result is Minkowski-orthogonal to its u, v and w and
    alternating in them.  Each row triple is first brought into a
    canonical order (lexicographic in the components, ties by argument
    index), so swapping any two arguments flips the sign of the result
    exactly, rounding included, and a repeated argument yields the exact
    zero vector.  A row triple that holds a NaN yields a NaN row.
    """
    u, v, w = (np.asarray(x, dtype=float).T for x in (u, v, w))
    with np.errstate(all="ignore"):
        uv, uw, vw = _before(u, v), _before(u, w), _before(v, w)
        u_first, u_last = uv & uw, ~(uv | uw)
        v_first, v_last = vw & ~uv, uv & ~vw
        a = np.where(u_first, u, np.where(v_first, v, w))
        b = np.where(u_first | u_last, np.where(v_first | v_last, w, v), u)
        c = np.where(u_last, u, np.where(v_last, v, w))
        # the 2 x 2 minors dij of the last two rows; minor k drops column k
        d01, d02, d03 = (b[0] * c[k] - b[k] * c[0] for k in (1, 2, 3))
        d12, d13 = (b[1] * c[k] - b[k] * c[1] for k in (2, 3))
        d23 = b[2] * c[3] - b[3] * c[2]
        m1 = a[1] * d23 - a[2] * d13 + a[3] * d12
        m2 = a[0] * d23 - a[2] * d03 + a[3] * d02
        m3 = a[0] * d13 - a[1] * d03 + a[3] * d01
        m4 = a[0] * d12 - a[1] * d02 + a[2] * d01
        # cofactor signs (+,-,+,-) on the first row (-e1, +e2, +e3, +e4)
        # give (-m1, -m2, +m3, -m4); an odd permutation flips them all
        sign = np.where(uv ^ uw ^ vw, 1.0, -1.0)  # 1 on even permutations
        out = np.array([sign * -m1, sign * -m2, sign * m3, sign * -m4])
    out[:, (a == b).all(axis=0) | (b == c).all(axis=0)] = 0.0
    out[:, np.isnan(np.concatenate((u, v, w))).any(axis=0)] = np.nan
    return out.T
