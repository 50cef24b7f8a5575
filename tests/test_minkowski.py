"""Tests for the signature (-,+,+,+) linear algebra layer."""

import math
import random

import numpy as np
import pytest

from lmcanal.minkowski import (
    Vec4, inner, inner_rows, norm, triple_cross, triple_cross_rows,
)

SQRT2 = math.sqrt(2.0)

E1 = Vec4(1, 0, 0, 0)
E2 = Vec4(0, 1, 0, 0)
E3 = Vec4(0, 0, 1, 0)
E4 = Vec4(0, 0, 0, 1)


def rand_vec(rng):
    return Vec4(*(rng.uniform(-1, 1) for _ in range(4)))


def test_inner_timelike_basis_vector():
    assert inner(E1, E1) == -1.0


def test_inner_pseudo_null_frame_pairing():
    # F2(0) and F4(0) of the pseudo null example frame pair to 1.
    f2 = Vec4(SQRT2, 0, 0, SQRT2)
    f4 = Vec4(-1 / (2 * SQRT2), 0, 0, 1 / (2 * SQRT2))
    assert inner(f2, f4) == pytest.approx(1.0, abs=1e-15)


def test_inner_direct_expansion():
    # -1*3 + 2*1 + 0*1 + 0*5 = -1
    assert inner(Vec4(1, 2, 0, 0), Vec4(3, 1, 1, 5)) == -1.0


def test_inner_symmetric_bilinear():
    rng = random.Random(7)
    for _ in range(200):
        u, v, z = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        assert inner(u, v) == pytest.approx(inner(v, u), abs=1e-12)
        lhs = inner(a * u + b * v, z)
        assert lhs == pytest.approx(a * inner(u, z) + b * inner(v, z), abs=1e-12)


def test_triple_cross_basis():
    assert triple_cross(E2, E3, E4) == Vec4(-1, 0, 0, 0)


def test_triple_cross_repeated_argument_vanishes():
    rng = random.Random(8)
    u, w = rand_vec(rng), rand_vec(rng)
    assert triple_cross(u, u, w) == Vec4(0, 0, 0, 0)


def test_triple_cross_orthogonality():
    rng = random.Random(9)
    for _ in range(100):
        u, v, w = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        x = triple_cross(u, v, w)
        for z in (u, v, w):
            assert abs(inner(x, z)) <= 1e-10


def test_triple_cross_alternating():
    rng = random.Random(10)
    for _ in range(50):
        u, v, w = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        x = triple_cross(u, v, w)
        assert triple_cross(v, u, w) == -x
        assert triple_cross(u, w, v) == -x


def test_row_forms_round_like_the_vector_forms():
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
    got = triple_cross_rows(rows[:, 0], rows[:, 1], rows[:, 2])
    want = np.array([triple_cross(*(Vec4(*v) for v in t)).components()
                     for t in triples])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    dots = inner_rows(rows[:, 0], rows[:, 1])
    assert dots.tolist() == [inner(Vec4(*t[0]), Vec4(*t[1])) for t in triples]


def test_norm_examples():
    assert norm(E1) == 1.0
    assert norm(Vec4(0, 3, 4, 0)) == 5.0
    assert norm(Vec4(1, 1, 0, 0)) == 0.0  # lightlike


def test_quadric_membership_examples():
    # offsets d = u - p from the center with <d, d> = lambda r^2 on the
    # pseudo sphere (lambda = 1), the pseudo hyperbolic hypersphere (-1) and
    # the null cone (0), row-wise
    r = 0.7
    d = np.array([[0.0, r, 0.0, 0.0], [r, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    assert inner_rows(d, d).tolist() == [r * r, -(r * r), 0.0]
