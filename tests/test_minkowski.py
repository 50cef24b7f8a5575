"""Tests for the signature (-,+,+,+) linear algebra layer."""

import math
import random

import numpy as np
import pytest

from lmcanal.minkowski import inner_rows, triple_cross, triple_cross_rows

SQRT2 = math.sqrt(2.0)

E1, E2, E3, E4 = np.eye(4)


def rand_vec(rng):
    return np.array([rng.uniform(-1, 1) for _ in range(4)])


def test_inner_timelike_basis_vector():
    assert inner_rows(E1, E1) == -1.0


def test_inner_pseudo_null_frame_pairing():
    # F2(0) and F4(0) of the pseudo null example frame pair to 1.
    f2 = np.array([SQRT2, 0, 0, SQRT2])
    f4 = np.array([-1 / (2 * SQRT2), 0, 0, 1 / (2 * SQRT2)])
    assert inner_rows(f2, f4) == pytest.approx(1.0, abs=1e-15)


def test_inner_direct_expansion():
    # -1*3 + 2*1 + 0*1 + 0*5 = -1
    assert inner_rows(np.array([1, 2, 0, 0]), np.array([3, 1, 1, 5])) == -1.0


def test_inner_symmetric_bilinear():
    rng = random.Random(7)
    for _ in range(200):
        u, v, z = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        assert inner_rows(u, v) == pytest.approx(inner_rows(v, u), abs=1e-12)
        lhs = inner_rows(a * u + b * v, z)
        assert lhs == pytest.approx(a * inner_rows(u, z) + b * inner_rows(v, z),
                                    abs=1e-12)


def test_triple_cross_basis():
    assert np.array_equal(triple_cross(E2, E3, E4), [-1, 0, 0, 0])


def test_triple_cross_repeated_argument_vanishes():
    rng = random.Random(8)
    u, w = rand_vec(rng), rand_vec(rng)
    assert np.array_equal(triple_cross(u, u, w), np.zeros(4))


def test_triple_cross_orthogonality():
    rng = random.Random(9)
    for _ in range(100):
        u, v, w = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        x = triple_cross(u, v, w)
        for z in (u, v, w):
            assert abs(inner_rows(x, z)) <= 1e-10


def test_triple_cross_alternating():
    rng = random.Random(10)
    for _ in range(50):
        u, v, w = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        x = triple_cross(u, v, w)
        assert x.shape == (4,)
        assert np.array_equal(triple_cross(v, u, w), -x)
        assert np.array_equal(triple_cross(u, w, v), -x)


def test_row_forms_alternate_exactly():
    # rows with ties in leading components, signed zeros, repeated and
    # permuted arguments exercise the canonical ordering bit for bit
    rng = random.Random(11)
    triples = []
    for _ in range(3000):
        vecs = [[rng.choice((0.0, -0.0, 1.0, -1.0, rng.uniform(-3, 3)))
                 for _ in range(4)] for _ in range(3)]
        if rng.random() < 0.1:
            vecs[2] = vecs[0]
        if rng.random() < 0.3:  # equal leading components
            k = rng.randint(1, 3)
            vecs[1] = vecs[0][:k] + vecs[1][k:]
        triples.append([vecs[i] for i in rng.sample(range(3), 3)])
    rows = np.array(triples)
    u, v, w = rows[:, 0], rows[:, 1], rows[:, 2]
    got = triple_cross_rows(u, v, w)
    # a repeated row (-0.0 equals 0.0) gives the exact +0.0 vector
    repeated = (np.all(u == v, axis=1) | np.all(v == w, axis=1)
                | np.all(u == w, axis=1))
    assert 100 < np.count_nonzero(repeated) < len(rows)
    assert np.all(got[repeated].view(np.int64) == 0)
    # swapping any two arguments flips every bit of the sign, zeros included
    for swapped in ((v, u, w), (u, w, v), (w, v, u)):
        flip = triple_cross_rows(*swapped)
        assert np.all(flip[repeated].view(np.int64) == 0)
        assert np.array_equal(flip[~repeated].view(np.int64),
                              (-got[~repeated]).view(np.int64))
    # orthogonal to each argument (the cofactor expansion, not its order)
    scale = 1.0 + np.max(np.abs(rows), axis=(1, 2)) ** 4
    for arg in (u, v, w):
        assert np.all(np.abs(inner_rows(got, arg)) <= 1e-13 * scale)
    # the inner product rounds as its formula in Python floats, in any batch
    dots = inner_rows(u, v)
    assert dots.tolist() == [-a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
                             + a[3] * b[3] for a, b, _ in triples]
    assert dots.tolist() == [inner_rows(np.array(a), np.array(b))
                             for a, b, _ in triples]


def test_quadric_membership_examples():
    # offsets d = u - p from the center with <d, d> = lambda r^2 on the
    # pseudo sphere (lambda = 1), the pseudo hyperbolic hypersphere (-1) and
    # the null cone (0), row-wise
    r = 0.7
    d = np.array([[0.0, r, 0.0, 0.0], [r, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    assert inner_rows(d, d).tolist() == [r * r, -(r * r), 0.0]
