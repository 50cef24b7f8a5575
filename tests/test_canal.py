"""Canal family parametrizations and closed-form curvatures.

Expected values are frozen from independent evaluations: direct
substitution into the worked-example parametrization/curvature formulas
(transcribed below as plain functions) and envelope identities checked
through the quadric residual <C - gamma, C - gamma> - lambda r^2.
"""

import math
import random

import numpy as np
import pytest

from lmcanal.canal import (CanalFamily, CurvaturePair, NullCoefficients,
                           RadiusSpec, RegimeError, ShapeSpec,
                           SingularPointError, UnsupportedFamilyError,
                           Variant, closed_form_gauge, curvature_closed,
                           evaluate_point, field,
                           flat_residual, minimal_residual,
                           null_constraint_residual,
                           field_tables, relation_residual,
                           weingarten_residuals)
from lmcanal.curves import (CurveClass, CurveSpec, builtin, derive_frame,
                            derive_frames)
from lmcanal.minkowski import inner_rows
from lmcanal import canal, expr, oracle

PN = builtin("pseudo-null-example")
PT = builtin("partially-null-example")
NU = builtin("null-example")
SHAPE_WT = ShapeSpec.from_text("w", "t")  # f = w, g = t
HALF_S = RadiusSpec.from_text("s/2")


# Worked-example closed forms, transcribed for use as independent oracles.

def example_c1_point(s, t, w):
    """Pseudo null C1 with r=s/2, g=t, f=w, branch +1 (reference closed form)."""
    r3 = math.sqrt(3.0)
    c, sh = math.cosh(2 * s), math.sinh(2 * s)
    sn, cs = math.sin(2 * s), math.cos(2 * s)
    pre = 1.0 / (16 * math.sqrt(2) * t)
    return np.array([
        pre * (c * (8 * t + r3 * s * (-1 + 8 * t * t) * math.sin(w))
               + 4 * s * t * (-1 + r3 * math.cos(w)) * sh),
        pre * (sh * (8 * t + r3 * s * (-1 + 8 * t * t) * math.sin(w))
               + 4 * s * t * (-1 + r3 * math.cos(w)) * c),
        pre * (sn * (8 * t - r3 * s * (1 + 8 * t * t) * math.sin(w))
               + 4 * s * t * (-1 - r3 * math.cos(w)) * cs),
        pre * (cs * (-8 * t + r3 * s * (1 + 8 * t * t) * math.sin(w))
               + 4 * s * t * (-1 - r3 * math.cos(w)) * sn),
    ])


def example_c1_kh(s, t, w):
    K = -8.0 / (s * s * (s - 2 * math.sqrt(3) * t / math.sin(w)))
    H = (-48 * t * t
         + 2 * s * (2 * math.sqrt(3) * t + 3 * s * math.sin(w)) * math.sin(w)) \
        / (36 * s * t * t - 3 * s ** 3 * math.sin(w) ** 2)
    return K, H


def example_c5_kh(s, w):
    K = -16 * math.sinh(w) / (s * s * (math.sqrt(5) - 2 * s * math.sinh(w)))
    H = -(20 - 4 * s * (math.sqrt(5) + 6 * s * math.sinh(w)) * math.sinh(w)) \
        / (3 * s * (-5 + 4 * s * s * math.sinh(w) ** 2))
    return K, H


ALL_FAMILY_SCENES = [
    # (curve, variant, radius text, s/t/w boxes)
    (PN, Variant.C1, "s/2", (0.3, 0.9), (0.7, 1.4), (0.5, 2.5)),
    (PN, Variant.C2, "s/2", (0.3, 0.9), (0.7, 1.4), (0.4, 1.1)),
    (PN, Variant.C3, "s/2", (0.3, 0.8), (0.8, 1.4), (0.3, 0.9)),
    (PN, Variant.C4, "1.5*s", (0.25, 0.45), (1.0, 1.5), (0.2, 0.7)),
    (PN, Variant.C5, "s/2", (0.3, 0.8), (0.8, 1.4), (0.3, 0.9)),
    (PT, Variant.C1, "s/2", (0.2, 0.5), (0.8, 1.6), (0.4, 1.1)),
    (PT, Variant.C2, "s/2", (0.2, 0.5), (0.8, 1.6), (0.4, 1.1)),
    (PT, Variant.C3, "s/2", (0.2, 0.4), (0.8, 1.6), (0.4, 0.8)),
    (PT, Variant.C4, "1.5*s", (0.55, 0.85), (0.8, 1.6), (1.1, 1.5)),
    (PT, Variant.C5, "s/2", (0.3, 0.8), (0.8, 1.6), (0.2, 0.7)),
    (PN, Variant.T1, "1/2", (0.2, 1.0), (0.8, 1.6), (0.5, 2.5)),
    (PN, Variant.T2, "1/2", (0.2, 1.0), (0.8, 1.6), (0.5, 1.1)),
    (PN, Variant.T3, "1/2", (0.2, 0.8), (0.9, 1.3), (0.45, 0.9)),
    (PN, Variant.T4, "1/2", (0.2, 1.0), (1.2, 2.0), (0.2, 0.8)),
    (PT, Variant.T1, "0.3", (0.2, 1.0), (0.8, 1.6), (0.3, 0.7)),
    (PT, Variant.T2, "0.3", (0.2, 1.0), (0.8, 1.6), (0.3, 0.7)),
    (PT, Variant.T3, "0.4", (0.2, 1.0), (0.8, 1.6), (1.0, 1.5)),
    (PT, Variant.T4, "0.4", (0.2, 1.0), (0.8, 1.6), (0.25, 0.6)),
]

NULL_SCENES = [
    (Variant.NULL_C1, "s/2", NullCoefficients.from_text("t", "w")),
    (Variant.NULL_C2, "s/2", NullCoefficients.from_text("-s-t", "w")),
    (Variant.NULL_T1, "1/2", NullCoefficients.from_text("t", "w")),
]


def rand_box(rng, box):
    return rng.uniform(*box)


def quadric_residuals(points, center, r, lam):
    """<C - gamma, C - gamma> - lam r^2, row by row."""
    d = points - center
    return inner_rows(d, d) - lam * (r * r)


def assert_envelope(fam, curve, radius, shape, nc, s, t, w, h=1e-4):
    """Membership (1e-9) and normality (1e-5, central difference in s of
    step h) at the points, from one field call."""
    n = len(s)
    fld = field(fam, curve, radius, shape, nc,
                np.concatenate([s, s + h, s - h]), np.tile(t, 3), np.tile(w, 3))
    point, plus, minus = fld.points.reshape(3, n, 4)
    center, r = fld.center[:n], fld.r[:n]
    assert np.all(np.abs(quadric_residuals(point, center, r, fam.lam))
                  <= 1e-9)
    d_s = (plus - minus) / (2 * h)
    assert np.all(np.abs(inner_rows(point - center, d_s)) <= 1e-5)


def test_family_compatibility():
    with pytest.raises(ValueError):
        CanalFamily(CurveClass.NULL, Variant.C1)
    with pytest.raises(ValueError):
        CanalFamily(CurveClass.PSEUDO_NULL, Variant.NULL_C1)
    with pytest.raises(ValueError):
        CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, branch=0)
    assert CanalFamily(CurveClass.NULL, Variant.NULL_C2).lam == -1
    assert Variant.C5.lam == -1 and Variant.T4.lam == -1
    assert Variant.C1.lam == 1 and Variant.NULL_T1.lam == 1


def test_evaluate_point_matches_reference_example():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    rng = random.Random(1)
    for _ in range(25):
        s, t, w = rng.uniform(0.3, 1.5), rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.9)
        got = evaluate_point(fam, PN, HALF_S, SHAPE_WT, None, s, t, w)
        want = example_c1_point(s, t, w)
        assert got.shape == (4,)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0,
                                                         np.linalg.norm(want))


def test_example_point_first_coordinate():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    p = evaluate_point(fam, PN, HALF_S, SHAPE_WT, None, 1.0, 1.0, math.pi / 2)
    # frozen from direct evaluation of the reference parametrization
    assert p[0] == pytest.approx(2.7048744670, abs=1e-9)


def test_example_point_on_pseudo_sphere():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    fld = field(fam, PN, HALF_S, SHAPE_WT, None, [1.0], [1.0], [math.pi / 2])
    assert fld.r[0] == 0.5 and np.array_equal(fld.center[0], PN.point(1.0))
    assert abs(quadric_residuals(fld.points, fld.center, fld.r, 1)[0]) <= 1e-9


def test_constant_radius_collapses_c_to_t():
    r = RadiusSpec.from_text("3/4")
    for (cv, canal_v, tub_v) in ((PN, Variant.C1, Variant.T1),
                                 (PN, Variant.C5, Variant.T4),
                                 (PT, Variant.C2, Variant.T2),
                                 (PT, Variant.C3, Variant.T3)):
        fam_c = CanalFamily(cv.curve_class, canal_v, 1)
        fam_t = CanalFamily(cv.curve_class, tub_v, 1)
        a = evaluate_point(fam_c, cv, r, SHAPE_WT, None, 0.4, 1.1, 0.8)
        b = evaluate_point(fam_t, cv, r, SHAPE_WT, None, 0.4, 1.1, 0.8)
        assert np.linalg.norm(a - b) <= 1e-14


def test_membership_and_normality_all_families():
    rng = random.Random(7)
    for curve, variant, rtext, sb, tb, wb in ALL_FAMILY_SCENES:
        for branch in (1, -1):
            fam = CanalFamily(curve.curve_class, variant, branch)
            rad = RadiusSpec.from_text(rtext)
            s, t, w = np.array([(rand_box(rng, sb), rand_box(rng, tb),
                                 rand_box(rng, wb)) for _ in range(40)]).T
            assert_envelope(fam, curve, rad, SHAPE_WT, None, s, t, w)


def test_membership_and_normality_null_families():
    rng = random.Random(8)
    for variant, rtext, nc in NULL_SCENES:
        fam = CanalFamily(CurveClass.NULL, variant)
        rad = RadiusSpec.from_text(rtext)
        s, t, w = np.array([(rng.uniform(0.3, 0.9), rng.uniform(0.5, 1.5),
                             rng.uniform(0, 6.2)) for _ in range(60)]).T
        assert_envelope(fam, NU, rad, None, nc, s, t, w)


def test_closed_curvature_matches_example_forms():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    rng = random.Random(3)
    for _ in range(30):
        s, t, w = rng.uniform(0.3, 1.5), rng.uniform(0.6, 2.0), rng.uniform(0.3, 2.8)
        fr = derive_frame(PN, s)
        pair = curvature_closed(fam, fr.k1, HALF_S.jet(s), w, t)
        K, H = example_c1_kh(s, t, w)
        assert pair.K == pytest.approx(K, rel=1e-12, abs=1e-12)
        assert pair.H == pytest.approx(H, rel=1e-12, abs=1e-12)
    fam5 = CanalFamily(CurveClass.PARTIALLY_NULL, Variant.C5, 1)
    for _ in range(30):
        s, w = rng.uniform(0.3, 1.2), rng.uniform(-0.8, 0.8)
        fr = derive_frame(PT, s)
        pair = curvature_closed(fam5, fr.k1, HALF_S.jet(s), w, 1.3)
        K, H = example_c5_kh(s, w)
        assert pair.K == pytest.approx(K, rel=1e-12, abs=1e-12)
        assert pair.H == pytest.approx(H, rel=1e-12, abs=1e-12)


def test_example_scene_curvature_values():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    fr = derive_frame(PN, 1.0)
    pair = curvature_closed(fam, fr.k1, HALF_S.jet(1.0), math.pi / 2, 1.0)
    assert pair.K == pytest.approx(3.246620, abs=1e-5)
    assert pair.H == pytest.approx(-1.062782, abs=1e-5)
    fam5 = CanalFamily(CurveClass.PARTIALLY_NULL, Variant.C5, 1)
    fr = derive_frame(PT, 1.0)
    pair = curvature_closed(fam5, fr.k1, HALF_S.jet(1.0), 0.0, 1.0)
    assert pair.K == pytest.approx(0.0, abs=1e-9)
    assert pair.H == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_tubular_constant_curvatures():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.T1, 1)
    one = RadiusSpec.from_text("1")
    # k1 = 0 (straight line): K = 0, H = -2/(3r)
    pair = curvature_closed(fam, 0.0, one.jet(0.5), 1.0, 1.2)
    assert pair.K == 0.0
    assert pair.H == pytest.approx(-2.0 / 3.0, abs=1e-15)
    # k1 = 1, g = sin f: K = 1/(r^2 (2-r)), H = (3r-4)/(3r(2-r))
    for r in (0.5, 1.0, 1.5):
        rr = RadiusSpec.from_text(repr(r))
        f = 0.9
        pair = curvature_closed(fam, 1.0, rr.jet(0.2), f, math.sin(f))
        assert pair.K == pytest.approx(1.0 / (r * r * (2 - r)), rel=1e-12)
        assert pair.H == pytest.approx((3 * r - 4) / (3 * r * (2 - r)), rel=1e-12)


def test_relation_residuals():
    rng = random.Random(9)
    for curve, variant, rtext, sb, tb, wb in ALL_FAMILY_SCENES:
        for branch in (1, -1):
            fam = CanalFamily(curve.curve_class, variant, branch)
            rad = RadiusSpec.from_text(rtext)
            s, t, w = np.array([(rand_box(rng, sb), rand_box(rng, tb),
                                 rand_box(rng, wb)) for _ in range(25)]).T
            # closed forms at f = w, g = t
            fld = field(fam, curve, rad, SHAPE_WT, None, s, t, w)
            assert not fld.singular.any()
            res = relation_residual(CurvaturePair(fld.K, fld.H), fld.r, fam)
            assert np.all(np.abs(res) <= 1e-9)


@pytest.mark.parametrize("variant", list(Variant))
def test_closed_form_gauge(variant):
    # -1 on C2 and T2 alone; on the closed-form variants it is sigma lambda
    want = -1 if variant in (Variant.C2, Variant.T2) else 1
    assert closed_form_gauge(variant) == want
    if not variant.is_null_variant:
        assert want == canal._CLOSED_FORMS[variant].sigma * variant.lam


def test_relation_examples():
    famc1 = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    # arbitrary pair at r=1, C1: 3*0 - 0 + 2/1
    assert relation_residual(CurvaturePair(0.0, 0.0), 1.0, famc1) == 2.0
    famc5 = CanalFamily(CurveClass.PARTIALLY_NULL, Variant.C5, 1)
    assert relation_residual(CurvaturePair(0.0, 4.0 / 3.0), 0.5, famc5) == \
        pytest.approx(0.0, abs=1e-15)
    # tubular T1 at r = 1: K = 1, H = -1/3 (k1 = 1, g = sin f) and K = 0,
    # H = -2/3 (a straight center) both satisfy 3H - r^2 K + 2/r = 0
    famt1 = CanalFamily(CurveClass.PSEUDO_NULL, Variant.T1)
    assert relation_residual(CurvaturePair(1.0, -1.0 / 3.0), 1.0, famt1) == \
        pytest.approx(0.0, abs=1e-15)
    assert relation_residual(CurvaturePair(0.0, -2.0 / 3.0), 1.0, famt1) == \
        pytest.approx(0.0, abs=1e-15)
    with pytest.raises(UnsupportedFamilyError):
        relation_residual(CurvaturePair(0, 0), 1.0,
                          CanalFamily(CurveClass.NULL, Variant.NULL_T1))


def test_regime_errors():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    steep = RadiusSpec.from_text("2*s")
    with pytest.raises(RegimeError):
        evaluate_point(fam, PN, steep, SHAPE_WT, None, 0.5, 1.0, 1.0)
    fam4 = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C4, 1)
    with pytest.raises(RegimeError):
        evaluate_point(fam4, PN, HALF_S, SHAPE_WT, None, 0.5, 1.0, 1.0)
    famt = CanalFamily(CurveClass.PSEUDO_NULL, Variant.T1, 1)
    with pytest.raises(RegimeError):
        evaluate_point(famt, PN, HALF_S, SHAPE_WT, None, 0.5, 1.0, 1.0)
    # rho^2 < 0 for a null family
    famn = CanalFamily(CurveClass.NULL, Variant.NULL_C2, 1)
    nc = NullCoefficients.from_text("0", "w")  # a1 = 0 gives rho^2 = -r^2 < 0
    with pytest.raises(RegimeError):
        evaluate_point(famn, NU, HALF_S, None, nc, 0.5, 1.0, 1.0)
    with pytest.raises(RegimeError):
        # negative radius
        evaluate_point(fam, PN, RadiusSpec.from_text("-s"), SHAPE_WT, None,
                       0.5, 1.0, 1.0)


def test_curvature_closed_unsupported_for_null():
    famn = CanalFamily(CurveClass.NULL, Variant.NULL_C1, 1)
    with pytest.raises(UnsupportedFamilyError):
        curvature_closed(famn, 1.0, (0.5, 0.0, 0.0), 0.0, 1.0)


def test_singular_point_error():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.T1, 1)
    # pole D = 2g - r k1 sin f = 0 at r = 1, k1 = 1, f = pi/2, g = 1/2
    with pytest.raises(SingularPointError):
        curvature_closed(fam, 1.0, (1.0, 0.0, 0.0), math.pi / 2, 0.5)


#: (r', r'') of each canal variant inside its regime; tubular ones have 0.
CANAL_SLOPES = {"C1": (0.3, 0.2), "C2": (0.4, -0.3), "C3": (0.2, 0.5),
                "C4": (1.4, 0.3), "C5": (0.6, -0.4)}


@pytest.mark.parametrize("cls", [CurveClass.PSEUDO_NULL,
                                 CurveClass.PARTIALLY_NULL])
@pytest.mark.parametrize("variant", [v for v in Variant
                                     if not v.is_null_variant])
def test_shared_denominator_zero_is_a_pole_of_every_family(variant, cls):
    # choose k1 so that D = a G - r sqrt(m) k1 T vanishes at (f, g)
    fam = CanalFamily(cls, variant)
    row = canal._CLOSED_FORMS[variant]
    r1, r2 = CANAL_SLOPES.get(variant.value, (0.0, 0.0))
    r, f, g = 0.7, 0.6, 0.45
    m = row.m0 + row.mq * r1 * r1
    G = row.pseudo * 2 * g if cls is CurveClass.PSEUDO_NULL else row.partial
    T = canal._trig(fam, f)
    k1 = (m - r * row.e2 * r2) * G / (r * math.sqrt(m) * T)
    with pytest.raises(SingularPointError, match="shared denominator D"):
        curvature_closed(fam, k1, (r, r1, r2), f, g)
    for k in (k1 * (1 - 1e-3), k1 * (1 + 1e-3)):
        pair = curvature_closed(fam, k, (r, r1, r2), f, g)
        assert abs(pair.K) > 1e2 and abs(pair.H) > 1e2


def test_removable_points_are_finite_and_continuous():
    # T1 at sin f = 0: the tubular pair's G/T is removable, K = 0 and
    # H = -2/(3r) there
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.T1)
    pair = curvature_closed(fam, 1.0, (0.5, 0.0, 0.0), 0.0, 1.0)
    assert (pair.K, pair.H) == (0.0, pytest.approx(-4.0 / 3.0, rel=1e-15))
    for f in (-1e-7, 1e-7):
        near = curvature_closed(fam, 1.0, (0.5, 0.0, 0.0), f, 1.0)
        assert near.K == pytest.approx(2.0 * f, rel=1e-6)
        assert near.H == pytest.approx(pair.H, abs=1e-7)
    # C1 where D+ = a G + u = 0: a factor of H's expanded numerator and
    # denominator, not a pole
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1)
    r, r1, r2, f = 0.5, 0.3, 0.2, 0.8
    m = 1.0 - r1 * r1
    g = -r * math.sqrt(m) * math.sin(f) / (2.0 * (m - r * r2))
    pair = curvature_closed(fam, 1.0, (r, r1, r2), f, g)
    assert pair.K == pytest.approx(-3.50617, abs=1e-5)
    assert pair.H == pytest.approx(-1.62551, abs=1e-5)
    for dg in (-1e-6, 1e-6):
        near = curvature_closed(fam, 1.0, (r, r1, r2), f, g + dg)
        assert near.K == pytest.approx(pair.K, abs=1e-4)
        assert near.H == pytest.approx(pair.H, abs=1e-5)


def test_flat_residual_cases():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    line = RadiusSpec.from_text("2*s+1")
    assert flat_residual(fam, line.jet(0.7), 0.0) == 0.0
    quad = RadiusSpec.from_text("s^2")
    assert flat_residual(fam, quad.jet(1.0), 0.0) == 2.0
    # curved center with g = sin f and constant radius r0: the K factor
    # q2 G + sqrt(m) k1 T over sin f is 1 at r'=r''=0
    for r0 in (0.5, 1.0, 1.3):
        jet = (r0, 0.0, 0.0)
        assert flat_residual(fam, jet, 1.0, f=0.8, g=math.sin(0.8)) == \
            pytest.approx(1.0, rel=1e-12)
    # curved center, general shape: the K factor at r'=r''=0 is sin f
    sf = math.sin(0.8)
    assert flat_residual(fam, (1.3, 0.0, 0.0), 1.0, f=0.8, g=1.1) == \
        pytest.approx(sf, rel=1e-12)
    # r0 = 2 is the pole D = sin f (2 - r0) = 0, not a flat point: K is
    # 2.77 at r0 = 1.9 and -2.27 at r0 = 2.1
    assert flat_residual(fam, (2.0, 0.0, 0.0), 1.0, f=0.8,
                         g=math.sin(0.8)) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(SingularPointError):
        curvature_closed(fam, 1.0, (2.0, 0.0, 0.0), 0.8, math.sin(0.8))
    for r0, K in ((1.9, 2.77), (2.1, -2.27)):
        assert curvature_closed(fam, 1.0, (r0, 0.0, 0.0), 0.8,
                                math.sin(0.8)).K == pytest.approx(K, abs=5e-3)
    fam5 = CanalFamily(CurveClass.PARTIALLY_NULL, Variant.C5, 1)
    assert flat_residual(fam5, line.jet(0.3), 0.0) == 0.0
    with pytest.raises(UnsupportedFamilyError):
        flat_residual(fam5, line.jet(0.3), 2.0, f=0.5, g=1.0)
    with pytest.raises(UnsupportedFamilyError):
        flat_residual(CanalFamily(CurveClass.PSEUDO_NULL, Variant.C2),
                      line.jet(0.3), 1.0, f=0.5, g=1.0)


def _rk4_radius(h_of_r, r0, s1, n):
    rs, h = [r0], s1 / n
    r = r0
    s = 0.0
    for _ in range(n):
        k1 = h_of_r(r)
        k2 = h_of_r(r + h / 2 * k1)
        k3 = h_of_r(r + h / 2 * k2)
        k4 = h_of_r(r + h * k3)
        r += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s += h
        rs.append(r)
    return rs, h


def _trajectory_residual(h_of_r, r0, span, sign):
    """Integrate r' = h(r), differentiate r' along the trajectory with a
    five-point stencil, return max |2 -/+ 2r'^2 -/+ 3 r r''|."""
    rs, h = _rk4_radius(h_of_r, r0, span, 1000)
    r1 = [h_of_r(r) for r in rs]
    worst = 0.0
    for i in range(2, len(rs) - 2):
        r2 = (-r1[i + 2] + 8 * r1[i + 1] - 8 * r1[i - 1] + r1[i - 2]) / (12 * h)
        res = 2.0 + sign * (2.0 * r1[i] ** 2 + 3.0 * rs[i] * r2)
        worst = max(worst, abs(res))
    return worst


def test_minimal_residual_cases():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    const = RadiusSpec.from_text("1")
    assert minimal_residual(fam, const.jet(0.1), 0.0) == 2.0
    fam5 = CanalFamily(CurveClass.PARTIALLY_NULL, Variant.C5, 1)
    assert minimal_residual(fam5, const.jet(0.1), 0.0) == 2.0
    with pytest.raises(UnsupportedFamilyError):
        minimal_residual(fam5, const.jet(0.1), 2.0, f=0.5, g=1.0)
    # curved center, general shape: the H factor 3u - c G at r'=r''=0,
    # 3 r sin f - 4g
    r, sf, g = 1.3, math.sin(0.8), 1.1
    assert minimal_residual(fam, (r, 0.0, 0.0), 1.0, f=0.8, g=g) == \
        pytest.approx(3 * r * sf - 4 * g, rel=1e-12)
    # the g = sin f band divides the same factor by sin f, so with
    # sin f > 0 the sign holds across the edge of the band
    jet = (1.0, 0.1, 0.2)
    inside = minimal_residual(fam, jet, 1.0, f=0.8, g=sf)
    outside = minimal_residual(fam, jet, 1.0, f=0.8, g=sf + 2e-9)
    assert inside * outside > 0
    assert inside == pytest.approx(outside / sf, rel=1e-6)
    # where D+ = a G + u = 0 the expanded H numerator vanishes, but H does
    # not: the residual reads H's own factor
    jet, m = (0.5, 0.3, 0.2), 1.0 - 0.3 * 0.3
    g = -0.5 * math.sqrt(m) * sf / (2.0 * (m - 0.5 * 0.2))
    H = curvature_closed(fam, 1.0, jet, 0.8, g).H
    assert H == pytest.approx(-1.6255, abs=1e-4)
    assert abs(minimal_residual(fam, jet, 1.0, f=0.8, g=g)) > 1.0

    # first integral r'^2 = 1 - (a/r)^{4/3} solves 2 - 2r'^2 - 3rr'' = 0
    a = 1.0
    worst = _trajectory_residual(
        lambda r: math.sqrt(max(0.0, 1.0 - (a / r) ** (4.0 / 3.0))),
        1.2, 1.0, sign=-1)
    assert worst <= 1e-8
    # partially null analogue: r'^2 = (a/r)^{4/3} - 1 solves 2 + 2r'^2 + 3rr''
    a = 2.0
    worst = _trajectory_residual(
        lambda r: math.sqrt(max(0.0, (a / r) ** (4.0 / 3.0) - 1.0)),
        1.5, 0.5, sign=+1)
    assert worst <= 1e-8


def test_null_constraint_residual():
    # built coefficients satisfy the constraint identically; read them off
    # field points through the null Gram table (<F1,F3> = 1, F2 and F4
    # unit spacelike): d = C - gamma = a1 F1 + a2 F2 + a3 F3 + a4 F4 gives
    # a1 = <d,F3>, a2 = <d,F2>, a3 = <d,F1>, a4 = <d,F4>.
    rng = random.Random(11)
    nc = NullCoefficients.from_text("t", "w")
    rad = HALF_S
    s, t, w = np.array([(rng.uniform(0.3, 0.9), rng.uniform(0.5, 1.5),
                         rng.uniform(0, 6.2)) for _ in range(50)]).T
    fam = CanalFamily(CurveClass.NULL, Variant.NULL_C1)
    fld = field(fam, NU, rad, None, nc, s, t, w)
    fr = derive_frames(NU, s)
    d = fld.points - fld.center
    a1, a2, a4 = (inner_rows(d, f) for f in (fr.f3, fr.f2, fr.f4))
    r, r1 = rad.jet(s)[:2]
    for i in range(len(s)):
        res = null_constraint_residual(a1[i], a2[i], a4[i], r[i], r1[i], 1)
        assert abs(res) <= 1e-12
    # raw external data generally violates it: a2 = a4 = r, a1 = 0
    assert null_constraint_residual(0.0, 1.0, 1.0, 1.0, 0.5, 1) == \
        pytest.approx(1.0)


def test_straight_line_tube_with_completion_frame():
    frame = ((0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 0), (-0.5, 0, 0, 0.5))
    line = CurveSpec(
        components=tuple(expr.parse(c) for c in ("0", "s", "0", "0")),
        curve_class=CurveClass.PSEUDO_NULL,
        completion_frame=frame)
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.T1, 1)
    one = RadiusSpec.from_text("1")
    rng = random.Random(13)
    s, t, w = np.array([(rng.uniform(0, 2), rng.uniform(0.8, 1.6),
                         rng.uniform(0.4, 2.6)) for _ in range(20)]).T
    fld = field(fam, line, one, SHAPE_WT, None, s, t, w)
    assert np.array_equal(fld.center[:, 1], s) and np.all(fld.r == 1.0)
    assert np.all(np.abs(quadric_residuals(fld.points, fld.center, fld.r, 1))
                  <= 1e-12)


def _weingarten(family, curve, radius, shape, s, t, w,
                step=oracle.DEFAULT_STEP):
    """Weingarten residuals on the grid of the axes s, t, w: the grid's
    stencil, then tables, then residuals on stencil rows 1-6."""
    t, w = (x.ravel() for x in np.meshgrid(t, w, indexing="ij"))
    axes, (s_ix, tw_ix) = oracle.grid_stencil(s, t, w, step)
    return weingarten_residuals(field_tables(family, curve, radius, shape,
                                             None, *axes),
                                s_ix[1:7], tw_ix[1:7], step)


def test_weingarten_residuals_tubular():
    axes = ([0.3 + 0.1 * i for i in range(4)],
            [1.0 + 0.1 * j for j in range(4)],
            [0.6 + 0.1 * k for k in range(4)])
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.T1, 1)
    rep = _weingarten(fam, PN, RadiusSpec.from_text("1/2"), SHAPE_WT, *axes)
    assert max(rep.st, rep.sw, rep.tw) <= 1e-6
    assert rep.points == 4 ** 3
    with pytest.raises(UnsupportedFamilyError):
        _weingarten(CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1),
                    PN, HALF_S, SHAPE_WT, *axes)


def test_weingarten_constant_scene_is_zero():
    # constant k1 and constant r in s: K, H constant along s, so the s-mixed
    # Jacobians vanish to rounding
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.T2, 1)
    rep = _weingarten(fam, PN, RadiusSpec.from_text("1/2"), SHAPE_WT,
                      [0.3 + 0.1 * i for i in range(5)], [1.0], [0.8])
    assert rep.st <= 1e-10 and rep.sw <= 1e-10
