"""Linear algebra of Lorentz-Minkowski 4-space E^4_1.

The ambient space is R^4 with the indefinite inner product

    <u, v> = -u1*v1 + u2*v2 + u3*v3 + u4*v4

i.e. signature (-,+,+,+) with the first coordinate timelike.  Everything
here is exact-signature and hand-expanded: the ternary cross product is
written out cofactor by cofactor so the sign pattern (-e1, e2, e3, e4)
of the defining determinant can be audited directly.  The row-wise forms
(``inner_rows``, ``triple_cross_rows``) take arrays of shape (N, 4) and
round exactly as the one-vector forms do; ``triple_cross`` is the one-row
adapter of ``triple_cross_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Vec4:
    """A point or vector of E^4_1 with coordinates (x1, x2, x3, x4)."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 + other.x1, self.x2 + other.x2,
                    self.x3 + other.x3, self.x4 + other.x4)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 - other.x1, self.x2 - other.x2,
                    self.x3 - other.x3, self.x4 - other.x4)

    def __mul__(self, c: float) -> "Vec4":
        return Vec4(c * self.x1, c * self.x2, c * self.x3, c * self.x4)

    __rmul__ = __mul__

    def __truediv__(self, c: float) -> "Vec4":
        return Vec4(self.x1 / c, self.x2 / c, self.x3 / c, self.x4 / c)

    def __neg__(self) -> "Vec4":
        return Vec4(-self.x1, -self.x2, -self.x3, -self.x4)

    def components(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)

    def euclid_norm(self) -> float:
        """Auxiliary Euclidean length (gauge fixing takes it row-wise)."""
        return math.sqrt(self.x1**2 + self.x2**2 + self.x3**2 + self.x4**2)


def inner(u: Vec4, v: Vec4) -> float:
    """Indefinite inner product -u1*v1 + u2*v2 + u3*v3 + u4*v4."""
    return -u.x1 * v.x1 + u.x2 * v.x2 + u.x3 * v.x3 + u.x4 * v.x4


def norm(u: Vec4) -> float:
    """Norm sqrt(|<u,u>|); zero exactly on lightlike vectors."""
    return math.sqrt(abs(inner(u, u)))


def inner_rows(u, v):
    """``inner`` of corresponding rows of two (..., 4) arrays."""
    return (-u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
            + u[..., 2] * v[..., 2] + u[..., 3] * v[..., 3])


def triple_cross(u: Vec4, v: Vec4, w: Vec4) -> Vec4:
    """Ternary cross product of E^4_1: ``triple_cross_rows`` of one row."""
    x = triple_cross_rows(*(np.array([a.components()]) for a in (u, v, w)))
    return Vec4(*x[0].tolist())


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

    def minor(drop):
        a, b, c = (np.delete(row, drop, axis=1).T for row in (a_, b_, c_))
        return a[0] * (b[1] * c[2] - b[2] * c[1]) \
            - a[1] * (b[0] * c[2] - b[2] * c[0]) \
            + a[2] * (b[0] * c[1] - b[1] * c[0])

    m1, m2, m3, m4 = (minor(k) for k in range(4))
    # First-row entries are (-e1, +e2, +e3, +e4) and cofactor signs alternate
    # (+,-,+,-), so the coordinates come out as (-m1, -m2, +m3, -m4).
    out = np.stack([sign * -m1, sign * -m2, sign * m3, sign * -m4], axis=1)
    return np.where(repeated[:, None], 0.0, out)
