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


def triple_cross_rows(u, v, w):
    """Ternary cross product of corresponding rows of three (N, 4) arrays.

    Formal expansion of det[[-e1, e2, e3, e4], [u], [v], [w]] along the
    first row.  Each result is Minkowski-orthogonal to its u, v and w and
    alternating in them.  Each row triple is first brought into a
    canonical order (lexicographic in the components, ties by argument
    index, tracking permutation parity), so swapping any two arguments
    flips the sign of the result exactly, rounding included, and a
    repeated argument yields the exact zero vector.
    """
    args = np.stack([u, v, w], axis=1)                    # (N, 3, 4)
    index = np.broadcast_to(np.arange(3), args.shape[:2])
    order = np.lexsort((index,) + tuple(args[:, :, k] for k in (3, 2, 1, 0)),
                       axis=-1)
    a_, b_, c_ = np.take_along_axis(args, order[:, :, None], axis=1) \
        .transpose(1, 0, 2)
    inversions = ((order[:, 0] > order[:, 1]).astype(int)
                  + (order[:, 0] > order[:, 2]) + (order[:, 1] > order[:, 2]))
    sign = np.where(inversions % 2 == 0, 1.0, -1.0)
    repeated = np.all(a_ == b_, axis=1) | np.all(b_ == c_, axis=1)

    def minor(columns):
        a, b, c = ([row[:, k] for k in columns] for row in (a_, b_, c_))
        return a[0] * (b[1] * c[2] - b[2] * c[1]) \
            - a[1] * (b[0] * c[2] - b[2] * c[0]) \
            + a[2] * (b[0] * c[1] - b[1] * c[0])

    # minor k drops column k
    m1, m2, m3, m4 = (minor(columns) for columns in
                      ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)))
    # First-row entries are (-e1, +e2, +e3, +e4) and cofactor signs alternate
    # (+,-,+,-), so the coordinates come out as (-m1, -m2, +m3, -m4).
    out = np.stack([sign * -m1, sign * -m2, sign * m3, sign * -m4], axis=1)
    return np.where(repeated[:, None], 0.0, out)
