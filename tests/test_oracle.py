"""Finite-difference oracle: jets, fundamental forms, curvatures.

Cross-checks against closed forms use the pseudo null C1 example scene
(r = s/2, f = w, g = t, branch +1), whose unit normal, metric determinant
and second-form determinant all have known closed expressions.
"""

import math
import random

import numpy as np
import pytest

from lmcanal import oracle
from lmcanal.canal import (CanalFamily, CurvaturePair, RadiusSpec, ShapeSpec,
                           Variant, curvature_closed, evaluate_point, field,
                           unit_normal_closed_pseudo_c1)
from lmcanal.curves import CurveClass, builtin, derive_frame
from lmcanal.minkowski import inner_rows

PN = builtin("pseudo-null-example")
FAM = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
RAD = RadiusSpec.from_text("s/2")
SHAPE = ShapeSpec.from_text("w", "t")


def scene_fn(s, t, w):
    return evaluate_point(FAM, PN, RAD, SHAPE, None, s, t, w)


def scene_points(s, t, w):
    """The example scene at parameter arrays, as (N, 4) rows."""
    return field(FAM, PN, RAD, SHAPE, None, s, t, w).points


def batch_curvatures(points_of, s, t, w, step=oracle.DEFAULT_STEP):
    """stencil -> stencil_jets -> forms_batch -> curvatures_batch at the
    points (s[i], t[i], w[i]); none of them may be degenerate or singular."""
    points = points_of(*oracle.stencil(s, t, w, step))
    forms, degenerate = oracle.forms_batch(oracle.stencil_jets(points, step))
    K, H, singular = oracle.curvatures_batch(forms)
    assert not (degenerate | singular).any()
    return CurvaturePair(K, H)


def detg_closed(s, t, w):
    """Metric determinant of the example scene: with f=w, g=t the shape
    Jacobian factor (g_w f_t - f_w g_t)^2 is 1."""
    r, r1, r2, _ = RAD.jet(s)
    m = 1 - r1 * r1
    x = r * math.sqrt(m) * math.sin(w) - 2 * (m - r * r2) * t
    return -(r ** 4) * m * x * x * math.sin(w) ** 2 / (4 * t ** 4)


def deth_closed(s, t, w):
    r, r1, r2, _ = RAD.jet(s)
    m = 1 - r1 * r1
    a = m - r * r2
    bracket = (r * m * math.sin(w) ** 2 - 4 * r2 * a * t * t
               - 2 * math.sqrt(m) * (m - 2 * r * r2) * t * math.sin(w))
    return r * r * m / (4 * t ** 4) * bracket * math.sin(w) ** 2


def test_jet_of_affine_map():
    p = np.array([0.3, -0.2, 1.0, 2.0])
    A, B, C = np.array([[1, 2, 0, 1], [0, 1, 1, 0], [2, 0, 1, 3]])

    def affine(s, t, w):
        return p + s * A + t * B + w * C

    jet = oracle.numeric_jet(affine, 0.4, -0.7, 1.1)
    assert jet.point.shape == jet.d_ww.shape == (1, 4)  # a batch of one
    for second in (jet.d_ss, jet.d_st, jet.d_sw, jet.d_tt, jet.d_tw, jet.d_ww):
        assert np.linalg.norm(second) <= 1e-9
    assert np.linalg.norm(jet.d_s - A) <= 1e-10
    assert np.linalg.norm(jet.d_t - B) <= 1e-10
    assert np.linalg.norm(jet.d_w - C) <= 1e-10


def test_jet_of_coordinate_map():
    def coords(s, t, w):
        return (0.0, s, t, w)  # any 4-sequence

    jet = oracle.numeric_jet(coords, 0.2, 0.5, -0.3)
    assert np.linalg.norm(jet.d_s - [0, 1, 0, 0]) <= 1e-12


def test_jet_rejects_bad_step():
    with pytest.raises(ValueError):
        oracle.numeric_jet(lambda s, t, w: (0, s, t, w), 0, 0, 0, step=0)


def test_mixed_partials_symmetric():
    # evaluate the same surface with two axes swapped; the cross partials
    # must land in each other's slots
    def swapped(s, w, t):
        return scene_fn(s, t, w)

    jet = oracle.numeric_jet(scene_fn, 0.6, 1.1, 1.2)
    jet2 = oracle.numeric_jet(swapped, 0.6, 1.2, 1.1)
    assert np.linalg.norm(jet.d_tw - jet2.d_tw) <= 1e-6
    assert np.linalg.norm(jet.d_st - jet2.d_sw) <= 1e-6


def test_fundamental_form_invariants():
    rng = random.Random(21)
    s, t, w = np.array([(rng.uniform(0.3, 0.9), rng.uniform(0.7, 1.4),
                         rng.uniform(0.5, 2.5)) for _ in range(25)]).T
    h = oracle.DEFAULT_STEP
    jet = oracle.stencil_jets(scene_points(*oracle.stencil(s, t, w, h)), h)
    forms, degenerate = oracle.forms_batch(jet)
    assert not degenerate.any()
    # symmetry
    assert np.array_equal(forms.g, forms.g.transpose(0, 2, 1))
    assert np.all(np.abs(forms.h - forms.h.transpose(0, 2, 1)) <= 1e-8)
    # unit normal, orthogonal to the tangents
    normal = forms.normal
    assert np.all(np.abs(np.abs(inner_rows(normal, normal)) - 1.0) <= 1e-9)
    for tangent in (jet.d_s, jet.d_t, jet.d_w):
        assert np.all(np.abs(inner_rows(normal, tangent)) <= 1e-8)
    assert np.all(forms.eps == 1)


def batch_forms(s, t, w, step=oracle.DEFAULT_STEP):
    """Fundamental forms of the example scene at the points (s[i], t[i],
    w[i]) from one kernel call on their stencils; none may be degenerate."""
    jet = oracle.stencil_jets(scene_points(*oracle.stencil(s, t, w, step)),
                              step)
    forms, degenerate = oracle.forms_batch(jet)
    assert not degenerate.any()
    return forms


def test_normal_matches_closed_form():
    rng = random.Random(22)
    s, t, w = np.array([(rng.uniform(0.3, 0.8), rng.uniform(0.7, 1.2),
                         rng.uniform(0.5, 1.5)) for _ in range(15)]).T
    forms = batch_forms(s, t, w, step=1.25e-4)
    for i in range(15):
        fr = derive_frame(PN, s[i])
        want = unit_normal_closed_pseudo_c1(fr, RAD.jet(s[i]), w[i], t[i],
                                            branch=1)
        normal = forms.normal[i]
        direct = min(np.linalg.norm(normal - want),
                     np.linalg.norm(normal + want))
        assert direct <= 1e-6


def test_detg_matches_closed_form():
    rng = random.Random(23)
    s, t, w = np.array([(rng.uniform(0.3, 0.9), rng.uniform(0.7, 1.4),
                         rng.uniform(0.5, 2.5)) for _ in range(15)]).T
    forms = batch_forms(s, t, w)
    for i in range(15):
        assert forms.detg[i] == pytest.approx(detg_closed(s[i], t[i], w[i]),
                                              rel=1e-4)


def test_deth_matches_closed_form():
    rng = random.Random(24)
    s, t, w = np.array([(rng.uniform(0.3, 0.9), rng.uniform(0.7, 1.4),
                         rng.uniform(0.5, 2.5)) for _ in range(15)]).T
    forms = batch_forms(s, t, w)
    for i in range(15):
        assert forms.deth[i] == pytest.approx(deth_closed(s[i], t[i], w[i]),
                                              rel=1e-3)


def test_curvatures_match_example_values():
    pair = batch_curvatures(scene_points, [1.0], [1.0], [math.pi / 2])
    assert pair.K[0] == pytest.approx(3.246620, rel=1e-4)
    assert pair.H[0] == pytest.approx(-1.062782, rel=1e-4)


def test_flat_surface_zero_curvature():
    def affine(s, t, w):
        return (np.outer(s, [0.1, 1, 0, 0]) + np.outer(t, [0.2, 0, 1, 0])
                + np.outer(w, [0.3, 0, 0, 1]) + np.array([1, 2, 3, 4]))

    pair = batch_curvatures(affine, [0.1], [0.2], [0.3])
    assert abs(pair.K[0]) <= 1e-8
    assert abs(pair.H[0]) <= 1e-8


def test_degenerate_tangent_error():
    def degenerate(s, t, w):
        return np.array([0, s, s, 0]) + np.array([0, t, t, 0])  # rank 1

    with pytest.raises(oracle.DegenerateTangentError):
        oracle.fundamental_forms(oracle.numeric_jet(degenerate, 0, 1, 1))


def test_singular_metric_error():
    # lightlike tangent plane: <d_s, d_s> = 0 makes det[g] vanish
    def lightlike(s, t, w):
        return (s, s, t, w)

    with pytest.raises((oracle.SingularMetricError,
                        oracle.DegenerateTangentError)):
        oracle.curvatures_numeric(
            oracle.fundamental_forms(oracle.numeric_jet(lightlike, 0, 1, 1)))


def test_compare_mixed_criterion():
    ok = oracle.compare(CurvaturePair(1.0, 2.0), CurvaturePair(1.00005, 2.0001),
                        rel_tol=1e-3, abs_tol=1e-9)
    assert ok.passed
    near_zero = oracle.compare(CurvaturePair(0.0, 0.0), CurvaturePair(1e-7, 0.0),
                               rel_tol=1e-4, abs_tol=1e-6)
    assert near_zero.passed
    bad = oracle.compare(CurvaturePair(1.0, 1.0), CurvaturePair(1.1, 1.0),
                         rel_tol=1e-3, abs_tol=1e-6)
    assert not bad.k_ok and bad.h_ok and not bad.passed
    # array pairs: every element must pass
    closed = CurvaturePair(np.array([1.0, 0.0, -3.0]), np.array([2.0, 1.0, 0.5]))
    assert oracle.compare(closed, CurvaturePair(closed.K + 1e-7, closed.H),
                          rel_tol=1e-4, abs_tol=1e-6).passed is True
    one_off = CurvaturePair(closed.K, closed.H + np.array([0.0, 0.1, 0.0]))
    assert oracle.compare(closed, one_off, rel_tol=1e-4,
                          abs_tol=1e-6).passed is False
    with pytest.raises(ValueError):
        oracle.compare(CurvaturePair(0, 0), CurvaturePair(0, 0), 0.0, 1e-6)


def test_step_halving_self_consistency():
    # second-order scheme: halving the step cuts the curvature error ~4x;
    # allow slack but require no degradation
    s, t, w = 0.5, 1.2, 1.5
    fr = derive_frame(PN, s)
    closed = curvature_closed(FAM, fr.k1, RAD.jet(s), w, t)
    full = batch_curvatures(scene_points, [s], [t], [w], step=1e-3)
    half = batch_curvatures(scene_points, [s], [t], [w], step=5e-4)
    for attr in ("K", "H"):
        e_full = abs(getattr(full, attr)[0] - getattr(closed, attr))
        e_half = abs(getattr(half, attr)[0] - getattr(closed, attr))
        change = abs(getattr(full, attr)[0] - getattr(half, attr)[0])
        # the change between steps is at most the full-step error itself
        # (= 4x the expected quarter-step residue), plus a rounding floor
        assert e_half <= e_full
        assert change <= 4.0 * (0.75 * e_full) + 1e-9
