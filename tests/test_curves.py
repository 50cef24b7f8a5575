"""Frame derivation against the analytic reference frames of the builtin
curves (``REFERENCE``, kept here as test data), plus the Gram-table /
frame-ODE verification machinery."""

import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from lmcanal import curves, expr
from lmcanal.curves import (ClassMismatchError, CurveClass, CurveSpec,
                            DegenerateCurveError, FrameRows,
                            UnknownCurveError, _null_mate, builtin,
                            builtin_names, derive_frame, derive_frames,
                            frame_residuals, frenet_rhs, gram_residual)
from lmcanal.minkowski import inner_rows
from lmcanal.scene import bundled_scene, bundled_scene_names

SAMPLES = [-1.0 + 2.0 * i / 49 for i in range(50)]


@dataclass(frozen=True)
class ReferenceFrame:
    """Analytic frame and curvature expressions of a builtin curve."""

    f1: tuple
    f2: tuple
    f3: tuple
    f4: tuple
    k1: object
    k2: object
    k3: object

    def frame_at(self, s):
        """F1..F4 at s: (4,) vectors for one s, (n, 4) rows for an array
        of n values."""
        def vec(comps):
            return np.stack(np.broadcast_arrays(
                *(expr.eval_value(c, s=s) for c in comps)), axis=-1)
        return vec(self.f1), vec(self.f2), vec(self.f3), vec(self.f4)


def _exprs(*texts: str) -> tuple:
    return tuple(expr.parse(t) for t in texts)


#: The analytic frames of the builtin curves, under the gauges of
#: ``derive_frames``.
REFERENCE = {
    "pseudo-null-example": ReferenceFrame(
        f1=_exprs("sinh(2*s)/sqrt(2)", "cosh(2*s)/sqrt(2)",
                  "cos(2*s)/sqrt(2)", "sin(2*s)/sqrt(2)"),
        f2=_exprs("sqrt(2)*cosh(2*s)", "sqrt(2)*sinh(2*s)",
                  "-sqrt(2)*sin(2*s)", "sqrt(2)*cos(2*s)"),
        f3=_exprs("sinh(2*s)/sqrt(2)", "cosh(2*s)/sqrt(2)",
                  "-cos(2*s)/sqrt(2)", "-sin(2*s)/sqrt(2)"),
        f4=_exprs("-cosh(2*s)/(2*sqrt(2))", "-sinh(2*s)/(2*sqrt(2))",
                  "-sin(2*s)/(2*sqrt(2))", "cos(2*s)/(2*sqrt(2))"),
        k1=expr.parse("1"), k2=expr.parse("4"), k3=expr.parse("0"),
    ),
    # F3 is the constant null direction (1,1,0,0) at the scale 5/2 of the
    # curve's f3_gauge
    "partially-null-example": ReferenceFrame(
        f1=_exprs("exp(s)", "exp(s)", "-sin(2*s)", "cos(2*s)"),
        f2=_exprs("exp(s)/2", "exp(s)/2", "-cos(2*s)", "-sin(2*s)"),
        f3=_exprs("5/2", "5/2", "0", "0"),
        f4=_exprs("-exp(2*s)/4 - 1/5", "-exp(2*s)/4 + 1/5",
                  "exp(s)*(cos(2*s) + 2*sin(2*s))/5",
                  "exp(s)*(sin(2*s) - 2*cos(2*s))/5"),
        k1=expr.parse("2"), k2=expr.parse("exp(s)"), k3=expr.parse("0"),
    ),
    "null-example": ReferenceFrame(
        f1=_exprs("cosh(s)/sqrt(2)", "sinh(s)/sqrt(2)",
                  "cos(s)/sqrt(2)", "-sin(s)/sqrt(2)"),
        f2=_exprs("sinh(s)/sqrt(2)", "cosh(s)/sqrt(2)",
                  "-sin(s)/sqrt(2)", "-cos(s)/sqrt(2)"),
        f3=_exprs("-cosh(s)/sqrt(2)", "-sinh(s)/sqrt(2)",
                  "cos(s)/sqrt(2)", "-sin(s)/sqrt(2)"),
        f4=_exprs("sinh(s)/sqrt(2)", "cosh(s)/sqrt(2)",
                  "sin(s)/sqrt(2)", "cos(s)/sqrt(2)"),
        k1=expr.parse("1"), k2=expr.parse("0"), k3=expr.parse("-1"),
    ),
}
#: a constant pseudo null frame for the straight line (0, s, 0, 0)
COMPLETION = ((0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 0), (-0.5, 0, 0, 0.5))


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
    assert sorted(REFERENCE) == list(builtin_names())
    for name in builtin_names():
        curve, reference = builtin(name), REFERENCE[name]
        # the reference frame on rows has the bits of its one-s vectors
        rows = reference.frame_at(np.array(SAMPLES))
        assert [v.shape for v in rows] == [(len(SAMPLES), 4)] * 4
        for i, s in enumerate(SAMPLES):
            fr = derive_frame(curve, s)
            ref = reference.frame_at(s)
            for got, want, row in zip((fr.f1, fr.f2, fr.f3, fr.f4), ref, rows):
                assert want.shape == (4,)
                assert want.tobytes() == row[i].tobytes(), (name, s)
                assert np.linalg.norm(got - want) <= 1e-7, (name, s)
            for got, k in zip((fr.k1, fr.k2, fr.k3),
                              (reference.k1, reference.k2, reference.k3)):
                assert abs(got - expr.eval_value(k, s=s)) <= 1e-8, (name, s)


def test_gram_tables_hold():
    for name in builtin_names():
        curve = builtin(name)
        res, _ = gram_residual(derive_frames(curve, SAMPLES), curve.curve_class)
        assert res.shape == (len(SAMPLES),)
        assert np.all(res <= 1e-8), name


def frame_table(curve, s):
    """Frames at s, s + FRAME_STEP and s - FRAME_STEP, one block each."""
    s = np.asarray(s, dtype=float)
    h = curves.FRAME_STEP
    return derive_frames(curve, np.concatenate([s, s + h, s - h]))


def test_frenet_ode_residuals():
    s = SAMPLES[::5]
    for name in builtin_names():
        curve = builtin(name)
        gram, ode = frame_residuals(frame_table(curve, s), curve.curve_class)
        assert gram.shape == ode.shape == (len(s),)
        assert np.all(ode <= 1e-5), (name, ode)
        assert np.all((gram <= curves.GRAM_TOL) & (ode <= curves.ODE_TOL))


def test_frame_residuals_need_three_blocks():
    curve = builtin("null-example")
    rows = derive_frames(curve, SAMPLES[:4])
    with pytest.raises(ValueError, match="3n frame rows"):
        frame_residuals(rows, curve.curve_class)


def test_pseudo_null_example_frame_at_zero():
    fr = derive_frame(builtin("pseudo-null-example"), 0.0)
    rt2 = math.sqrt(2.0)
    assert np.linalg.norm(fr.f1 - [0, 1 / rt2, 1 / rt2, 0]) < 1e-12
    assert np.linalg.norm(fr.f2 - [rt2, 0, 0, rt2]) < 1e-12
    assert np.linalg.norm(fr.f3 - [0, 1 / rt2, -1 / rt2, 0]) < 1e-12
    assert np.linalg.norm(fr.f4 - [-1 / (2 * rt2), 0, 0, 1 / (2 * rt2)]) < 1e-12


def test_null_example_tangent_at_zero():
    fr = derive_frame(builtin("null-example"), 0.0)
    rt2 = math.sqrt(2.0)
    assert np.linalg.norm(fr.f1 - [1 / rt2, 0, 1 / rt2, 0]) < 1e-12


def test_null_example_arclength():
    curve = builtin("null-example")
    for s in SAMPLES:
        jets = curve.jets(s)
        d2 = np.array([j.derivatives()[2] for j in jets])
        assert abs(inner_rows(d2, d2) - 1.0) <= 1e-10


def test_straight_line_rejected_without_completion():
    line = CurveSpec(
        components=tuple(expr.parse(c) for c in ("0", "s", "0", "0")),
        curve_class=CurveClass.PSEUDO_NULL)
    with pytest.raises(DegenerateCurveError):
        derive_frame(line, 0.0)


def test_straight_line_accepts_completion_frame():
    line = CurveSpec(
        components=tuple(expr.parse(c) for c in ("0", "s", "0", "0")),
        curve_class=CurveClass.PSEUDO_NULL,
        completion_frame=COMPLETION)
    fr = derive_frame(line, 0.3)
    assert fr.k1 == fr.k2 == fr.k3 == 0.0
    res, _ = gram_residual(derive_frames(line, [0.3]), CurveClass.PSEUDO_NULL)
    assert res.tolist() == [0.0]


def test_scaled_f3_breaks_gram_table():
    curve = builtin("pseudo-null-example")
    s = [0.2, 0.5]
    good = frame_table(curve, s)
    scale = np.ones((3 * len(s), 1))
    scale[0] = 2.0  # the first frame at s, not its neighbours
    bad = good._replace(f3=good.f3 * scale)
    res, worst = gram_residual(bad, CurveClass.PSEUDO_NULL)
    # <2 F3, 2 F3> = 4 where the table says 1, in the first row only
    assert res[0] == pytest.approx(3.0, abs=1e-9)
    assert tuple(worst[0]) == (3, 3)
    assert np.all(res[1:] <= 1e-8)
    gram, ode = frame_residuals(bad, curve.curve_class)
    assert gram[0] == res[0]
    passed = (gram <= curves.GRAM_TOL) & (ode <= curves.ODE_TOL)
    assert passed.tolist() == [False, True]


def test_frenet_rhs_structure():
    curve = builtin("pseudo-null-example")
    rows = derive_frames(curve, [0.1, 0.4])
    rhs = frenet_rhs(CurveClass.PSEUDO_NULL, rows)
    # F1' = k1 F2 for the pseudo null system
    assert np.all(rhs[0] - rows.k1[:, None] * rows.f2 == 0.0)


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
        completion_frame=COMPLETION)
    for curve in [builtin(name) for name in builtin_names()] + [line]:
        for s in (-1.0, -0.37, 0.0, 0.5, 1.3):
            fr = derive_frame(curve, s)
            point = curve.point(s)
            assert point.shape == fr.gamma.shape == (4,)
            assert {type(k) for k in (fr.k1, fr.k2, fr.k3)} == {float}
            assert np.array_equal(fr.gamma, point), (curve.name, s)


def test_curves_hash_by_identity():
    # Curves hash and compare by identity, so hashing never walks the
    # expression trees; equal-valued copies still give equal frames.
    a, b = builtin("pseudo-null-example"), builtin("pseudo-null-example")
    assert hash(a) == object.__hash__(a)
    assert a == a and a != b
    fa, fb = derive_frame(a, 0.25), derive_frame(b, 0.25)
    for name in FrameRows._fields:
        assert np.array_equal(getattr(fa, name), getattr(fb, name)), name


# Lorentz boost (cosh, sinh) = (5/4, 3/4) in the x1-x2 plane, then a shift.
BOOST_CH, BOOST_SH = 1.25, 0.75
SHIFT = (0.5, -1.0, 2.0, 0.25)


def _boost(v):
    return np.array([BOOST_CH * v[0] + BOOST_SH * v[1],
                     BOOST_SH * v[0] + BOOST_CH * v[1], v[2], v[3]])


def _boosted_curve(name: str) -> CurveSpec:
    """The builtin curve moved by the isometry, as custom components."""
    curve = builtin(name)
    c1, c2, c3, c4 = (f"({expr.to_str(c)})" for c in curve.components)
    texts = (f"5/4*{c1} + 3/4*{c2} + {SHIFT[0]}",
             f"3/4*{c1} + 5/4*{c2} + {SHIFT[1]}",
             f"{c3} + {SHIFT[2]}", f"{c4} + {SHIFT[3]}")
    gauge = (None if curve.f3_gauge is None
             else tuple(_boost(curve.f3_gauge).tolist()))
    return CurveSpec(components=tuple(expr.parse(t) for t in texts),
                     curve_class=curve.curve_class, f3_gauge=gauge)


@pytest.mark.parametrize("name", ["pseudo-null-example",
                                  "partially-null-example"])
def test_frames_are_lorentz_equivariant(name):
    # The frame construction uses only the metric, so the frame of the
    # moved curve is the boosted frame and the curvatures are unchanged.
    curve, moved = builtin(name), _boosted_curve(name)
    for s in SAMPLES:
        fr, mv = derive_frame(curve, s), derive_frame(moved, s)
        for got, want in zip((mv.f1, mv.f2, mv.f3, mv.f4),
                             (fr.f1, fr.f2, fr.f3, fr.f4)):
            assert np.linalg.norm(got - _boost(want)) <= 1e-9, (name, s)
        for got, want in zip((mv.k1, mv.k2, mv.k3), (fr.k1, fr.k2, fr.k3)):
            assert abs(got - want) <= 1e-8, (name, s)
        assert np.linalg.norm(mv.gamma - _boost(fr.gamma)
                              - np.array(SHIFT)) <= 1e-12, (name, s)


def _random_lorentz(rng):
    """A random proper Lorentz transformation: four boosts or rotations in
    random coordinate planes."""
    ops = [(*sorted(rng.sample(range(4), 2)), rng.uniform(-1.5, 1.5))
           for _ in range(4)]

    def apply(v):
        x = v.tolist()
        for i, j, a in ops:
            if i == 0:  # boost in the (x1, xj) plane
                c, sh = math.cosh(a), math.sinh(a)
                x[i], x[j] = c * x[i] + sh * x[j], sh * x[i] + c * x[j]
            else:
                c, sn = math.cos(a), math.sin(a)
                x[i], x[j] = c * x[i] - sn * x[j], sn * x[i] + c * x[j]
        return np.array(x)
    return apply


def test_null_mate_solves_the_gram_conditions():
    # Standard pair: a, b unit spacelike, <mate, x> = 1 with both null.
    rt2 = math.sqrt(2.0)
    a0, b0 = np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])
    m0 = np.array([1.0, 1.0, 0.0, 0.0]) / rt2
    x0 = np.array([-1.0, 1.0, 0.0, 0.0]) / rt2
    rng = random.Random(5)
    rows = {"a": [], "b": [], "mate": [], "want": []}
    for _ in range(200):
        move, lam = _random_lorentz(rng), math.exp(rng.uniform(-2.0, 2.0))
        for key, v in (("a", move(a0)), ("b", move(b0)),
                       ("mate", lam * move(m0)), ("want", move(x0) / lam)):
            rows[key].append(v)
    a, b, mate, want = (np.array(rows[k]) for k in ("a", "b", "mate", "want"))
    got = _null_mate(a, b, mate, np.arange(200.0))
    want_norm = np.linalg.norm(want, axis=1)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-10 * want_norm)
    assert np.all(np.abs(inner_rows(got, mate) - 1.0) <= 1e-10)
    assert np.all(np.abs(inner_rows(got, got)) <= 1e-10 * want_norm ** 2)


def test_null_mate_rejects_degenerate_input():
    a, b = np.array([[0.0, 0.0, 1.0, 0.0]]), np.array([[0.0, 0.0, 0.0, 1.0]])
    mate = np.array([[1.0, 1.0, 0.0, 0.0]])
    s = np.array([0.25])
    with pytest.raises(DegenerateCurveError, match="s=0.25"):
        _null_mate(a, a, mate, s)  # vanishing Gram determinant
    with pytest.raises(DegenerateCurveError):
        _null_mate(a, b, np.zeros((1, 4)), s)  # nothing to pair with
    with pytest.raises(DegenerateCurveError):
        _null_mate(a, b, a, s)  # the pairing vanishes after the projection


# ---------------------------------------------------------------------------
# Frames on rows

def _frame_bits(frame: FrameRows):
    return np.array([frame.gamma, frame.f1, frame.f2, frame.f3, frame.f4,
                     [frame.k1, frame.k2, frame.k3, 0.0]]).tobytes()


def _row_bits(rows, i):
    return np.array([rows.gamma[i], rows.f1[i], rows.f2[i], rows.f3[i],
                     rows.f4[i], [rows.k1[i], rows.k2[i], rows.k3[i], 0.0]]
                    ).tobytes()


def test_derive_frames_rows_equal_one_point_frames():
    # Every bundled scene's curve over its s range (each value once), plus
    # the boosted custom-component curves, an ungauged partially null curve
    # and a completion-frame line.
    # Shuffled and doubled batches give each s the bits of derive_frame.
    line = CurveSpec(
        components=tuple(expr.parse(c) for c in ("0", "s", "0", "0")),
        curve_class=CurveClass.PSEUDO_NULL,
        completion_frame=COMPLETION)
    cases = [(bundled_scene(name).curve,
              np.linspace(*bundled_scene(name).grid.range_of("s"), 5))
             for name in bundled_scene_names()]
    cases += [(_boosted_curve(name), np.array(SAMPLES[::7]))
              for name in ("pseudo-null-example", "partially-null-example")]
    # without f3_gauge, F3 takes the lexicographic sign and Euclidean scale
    ungauged = CurveSpec(components=builtin("partially-null-example")
                         .components, curve_class=CurveClass.PARTIALLY_NULL)
    cases.append((ungauged, np.array(SAMPLES[::7])))
    cases.append((line, np.array([-1.0, 0.0, 0.3, 2.5])))
    rng = np.random.default_rng(3)
    for curve, s in cases:
        want = [_frame_bits(derive_frame(curve, x)) for x in s.tolist()]
        perm = rng.permutation(len(s))
        shuffled = derive_frames(curve, s[perm])
        doubled = derive_frames(curve, np.concatenate([s, s[::-1]]))
        n = len(s)
        for i in range(n):
            assert _row_bits(shuffled, int(np.argsort(perm)[i])) == want[i]
            assert _row_bits(doubled, i) == want[i]
            assert _row_bits(doubled, 2 * n - 1 - i) == want[i]


def test_ungauged_partially_null_f3_is_lexicographically_positive():
    # Without f3_gauge, F3 is the Euclidean-unit null binormal direction
    # whose first nonzero component is positive, whichever way the curve
    # is traversed; the builtin's binormal direction is (1, 1, 0, 0).
    curve = builtin("partially-null-example")
    for sign in ("", "-"):
        comps = tuple(expr.parse(f"{sign}({expr.to_str(c)})")
                      for c in curve.components)
        rows = derive_frames(CurveSpec(components=comps,
                                       curve_class=CurveClass.PARTIALLY_NULL),
                             SAMPLES)
        want = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
        assert np.all(np.abs(rows.f3 - want) <= 1e-12), sign


def _perturbed(name, component, term):
    curve = builtin(name)
    comps = list(curve.components)
    comps[component] = expr.parse(f"{expr.to_str(comps[component])} + {term}")
    return CurveSpec(components=tuple(comps), curve_class=curve.curve_class,
                     f3_gauge=curve.f3_gauge)


@pytest.mark.parametrize("curve, good, bad", [
    # the jets leave their domain at s <= 0 only
    (_perturbed("pseudo-null-example", 0, "0*sqrt(s)"), [0.3, 0.7, 1.1], -0.5),
    # the tangent stays unit to 1e-6 near s = 0 only
    (_perturbed("pseudo-null-example", 2, "s^5/1000"), [0.0, 0.01, -0.01],
     1.0),
    # the completion frame matches the tangent to 1e-9 near s = 0 only
    (CurveSpec(components=tuple(expr.parse(c) for c in
                                ("0", "s + s^3", "0", "0")),
               curve_class=CurveClass.PSEUDO_NULL,
               completion_frame=COMPLETION),
     [0.0, 1e-6, -1e-6], 0.5),
])
def test_derive_frames_one_bad_s_raises_its_one_point_error(curve, good, bad):
    derive_frames(curve, good)
    with pytest.raises(Exception) as one:
        derive_frame(curve, bad)
    assert str(bad) in str(one.value)
    for batch in (good + [bad], [bad] + good, good[:1] + [bad] + good[1:]):
        with pytest.raises(type(one.value)) as err:
            derive_frames(curve, batch)
        assert type(err.value) is type(one.value)
        assert str(err.value) == str(one.value)
