"""Frame derivation against the analytic reference frames of the builtin
curves, plus the Gram-table / frame-ODE verification machinery."""

import math

import pytest

from lmcanal import expr
from lmcanal.curves import (CurveClass, CurveSpec, DegenerateCurveError,
                            FrenetData, UnknownCurveError, builtin,
                            builtin_names, derive_frame, frenet_rhs,
                            gram_residual, verify_frame)
from lmcanal.minkowski import Vec4, inner

SAMPLES = [-1.0 + 2.0 * i / 49 for i in range(50)]


def test_builtin_names():
    assert builtin_names() == ("null-example", "partially-null-example",
                               "pseudo-null-example")
    with pytest.raises(UnknownCurveError):
        builtin("nope")


def test_builtin_curvature_constants():
    expected = {
        "pseudo-null-example": lambda s: (1.0, 4.0, 0.0),
        "partially-null-example": lambda s: (2.0, math.exp(s), 0.0),
        "null-example": lambda s: (1.0, 0.0, -1.0),
    }
    for name, want in expected.items():
        curve = builtin(name)
        for s in SAMPLES:
            fr = derive_frame(curve, s)
            for got, ref in zip((fr.k1, fr.k2, fr.k3), want(s)):
                assert abs(got - ref) <= 1e-8, (name, s)


def test_derived_frames_match_analytic():
    for name in builtin_names():
        curve = builtin(name)
        for s in SAMPLES:
            fr = derive_frame(curve, s)
            ref = curve.reference.frame_at(s)
            for got, want in zip(fr.vectors(), ref):
                assert (got - want).euclid_norm() <= 1e-7, (name, s)


def test_gram_tables_hold():
    for name in builtin_names():
        curve = builtin(name)
        for s in SAMPLES:
            res, _ = gram_residual(derive_frame(curve, s), curve.curve_class)
            assert res <= 1e-8


def test_frenet_ode_residuals():
    for name in builtin_names():
        curve = builtin(name)
        for s in SAMPLES[::5]:
            rep = verify_frame(derive_frame(curve, s), curve.curve_class,
                               curve, step=1e-4)
            assert rep.ode_residual <= 1e-5, (name, s, rep.ode_residual)
            assert rep.passed


def test_pseudo_null_example_frame_at_zero():
    fr = derive_frame(builtin("pseudo-null-example"), 0.0)
    rt2 = math.sqrt(2.0)
    assert (fr.f1 - Vec4(0, 1 / rt2, 1 / rt2, 0)).euclid_norm() < 1e-12
    assert (fr.f2 - Vec4(rt2, 0, 0, rt2)).euclid_norm() < 1e-12
    assert (fr.f3 - Vec4(0, 1 / rt2, -1 / rt2, 0)).euclid_norm() < 1e-12
    assert (fr.f4 - Vec4(-1 / (2 * rt2), 0, 0, 1 / (2 * rt2))).euclid_norm() < 1e-12


def test_null_example_tangent_at_zero():
    fr = derive_frame(builtin("null-example"), 0.0)
    rt2 = math.sqrt(2.0)
    assert (fr.f1 - Vec4(1 / rt2, 0, 1 / rt2, 0)).euclid_norm() < 1e-12


def test_null_example_arclength():
    curve = builtin("null-example")
    for s in SAMPLES:
        jets = curve.jets(s)
        d2 = Vec4(*(j.d2 for j in jets))
        assert abs(inner(d2, d2) - 1.0) <= 1e-10


def test_straight_line_rejected_without_completion():
    line = CurveSpec(
        components=tuple(expr.parse(c) for c in ("0", "s", "0", "0")),
        curve_class=CurveClass.PSEUDO_NULL)
    with pytest.raises(DegenerateCurveError):
        derive_frame(line, 0.0)


def test_straight_line_accepts_completion_frame():
    frame = (Vec4(0, 1, 0, 0), Vec4(1, 0, 0, 1),
             Vec4(0, 0, 1, 0), Vec4(-0.5, 0, 0, 0.5))
    line = CurveSpec(
        components=tuple(expr.parse(c) for c in ("0", "s", "0", "0")),
        curve_class=CurveClass.PSEUDO_NULL,
        completion_frame=frame)
    fr = derive_frame(line, 0.3)
    assert fr.k1 == fr.k2 == fr.k3 == 0.0
    res, _ = gram_residual(fr, CurveClass.PSEUDO_NULL)
    assert res == 0.0


def test_scaled_f3_breaks_gram_table():
    curve = builtin("pseudo-null-example")
    fr = derive_frame(curve, 0.2)
    bad = FrenetData(fr.s, fr.f1, fr.f2, 2.0 * fr.f3, fr.f4,
                     fr.k1, fr.k2, fr.k3)
    res, worst = gram_residual(bad, CurveClass.PSEUDO_NULL)
    # <2 F3, 2 F3> = 4 where the table says 1
    assert res == pytest.approx(3.0, abs=1e-9)
    assert worst == (3, 3)
    rep = verify_frame(bad, CurveClass.PSEUDO_NULL, curve, step=1e-4)
    assert not rep.passed


def test_frenet_rhs_structure():
    curve = builtin("pseudo-null-example")
    fr = derive_frame(curve, 0.1)
    rhs = frenet_rhs(CurveClass.PSEUDO_NULL, fr)
    # F1' = k1 F2 for the pseudo null system
    assert (rhs[0] - fr.k1 * fr.f2).euclid_norm() == 0.0


def test_class_mismatch_detected():
    # the pseudo null example declared as partially null has a null normal
    curve = builtin("pseudo-null-example")
    wrong = CurveSpec(components=curve.components,
                      curve_class=CurveClass.PARTIALLY_NULL)
    from lmcanal.curves import ClassMismatchError
    with pytest.raises(ClassMismatchError):
        derive_frame(wrong, 0.0)


def test_null_needs_arclength():
    # a null curve with the wrong normalization is flagged
    curve = CurveSpec(
        components=tuple(expr.parse(c) for c in
                         ("sinh(2*s)/sqrt(2)", "cosh(2*s)/sqrt(2)",
                          "sin(2*s)/sqrt(2)", "cos(2*s)/sqrt(2)")),
        curve_class=CurveClass.NULL)
    from lmcanal.curves import ClassMismatchError
    with pytest.raises(ClassMismatchError):
        derive_frame(curve, 0.0)


def test_frame_point_is_curve_point():
    # gamma(s) comes from the order-0 term of the frame's own jets and must
    # equal the plain evaluation exactly.
    line = CurveSpec(
        components=tuple(expr.parse(c) for c in ("0", "s", "0", "0")),
        curve_class=CurveClass.PSEUDO_NULL,
        completion_frame=(Vec4(0, 1, 0, 0), Vec4(1, 0, 0, 1),
                          Vec4(0, 0, 1, 0), Vec4(-0.5, 0, 0, 0.5)))
    for curve in [builtin(name) for name in builtin_names()] + [line]:
        for s in (-1.0, -0.37, 0.0, 0.5, 1.3):
            fr = derive_frame(curve, s)
            assert fr.point == curve.point(s), (curve.name, s)


def test_curves_hash_by_identity():
    # The frame cache keys on the curve object; hashing must not walk the
    # expression trees, so equal-valued copies are distinct keys.
    a, b = builtin("pseudo-null-example"), builtin("pseudo-null-example")
    assert hash(a) == object.__hash__(a)
    assert a == a and a != b
    assert derive_frame(a, 0.25) == derive_frame(b, 0.25)
