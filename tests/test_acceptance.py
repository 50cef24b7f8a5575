"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2/3/5/6/8 share the scene verification sweeps, computed once per
bundled scene by the module fixture.  All tolerances are fixed here, not
configurable: they are the exit gate of the package.

Criterion 10 checks the null worked example (center
(sinh s, cosh s, sin s, cos s)/sqrt(2), radius s/2) against a closed form
derived by hand from the envelope conditions and the null Gram table
(<F1,F3> = 1, F2 and F4 unit spacelike).  Writing C - gamma =
a1 F1 + a2 F2 + a3 F3 + a4 F4, membership <C-gamma, C-gamma> = lam r^2 and
its s-derivative <C-gamma, F1> = -lam r r' force a3 = -lam r r' and
a2^2 + a4^2 = lam r (r + 2 a1 r').  The reference takes the bundled null-c1
free data a1 = t, theta = w (lam = +1), substitutes the analytic null frame
and expands to Cartesian coordinates; the criterion then asserts the
envelope identities on it and that evaluate_point reproduces it.  An
earlier transcription of this example was the pseudo null C1 fiber
(a1 = -r r', a2 = rho t sin w, a3 = rho cos w, a4 = rho sin w / (2t),
rho = r sqrt(1 - r'^2)), which assumes a unit spacelike F1 and a null
F2/F4 pair, put on the null frame; it lies on no pseudo-sphere (membership
residual ~3.5e-1).  The paper's own printed formula is not in this
repository, so the reference rests on the derivation above, not on a
comparison with the paper's text.
"""

import math
import random

import numpy as np
import pytest

from lmcanal.canal import (CanalFamily, NullCoefficients, RadiusSpec,
                           ShapeSpec, Variant, curvature_closed,
                           evaluate_point, field, flat_residual)
from lmcanal.curves import (CurveClass, CurveSpec, builtin, builtin_names,
                            derive_frame, derive_frames, gram_residual,
                            verify_frames)
from lmcanal.expr import parse
from lmcanal.mesh import GridSpec, export_field, export_obj, sweep
from lmcanal.minkowski import inner_rows
from lmcanal.scene import bundled_scene, bundled_scene_names
from lmcanal.verify import verify_scene

CANAL_SCENES = [
    "pseudo-null-c1", "pseudo-null-c2", "pseudo-null-c3", "pseudo-null-c4",
    "pseudo-null-c5", "partially-null-c1", "partially-null-c2",
    "partially-null-c3", "partially-null-c4", "partially-null-c5",
]
TUBULAR_SCENES = [
    "pseudo-null-t1", "pseudo-null-t2", "pseudo-null-t3", "pseudo-null-t4",
    "partially-null-t1", "partially-null-t2", "partially-null-t3",
    "partially-null-t4",
]
NULL_SCENES = ["null-c1", "null-c2", "null-t1"]
FIGURE_SCENES = ["pseudo-null-c1-figure", "partially-null-c5-figure",
                 "null-c1-figure"]

_REPORTS = {}


@pytest.fixture(scope="module")
def reports():
    """verify_scene once per bundled (non-figure) scene, cached."""
    if not _REPORTS:
        for name in CANAL_SCENES + TUBULAR_SCENES + NULL_SCENES:
            _REPORTS[name] = rep = verify_scene(bundled_scene(name))
            if name not in NULL_SCENES:
                assert rep.points_checked >= 500, (name, rep.points_checked)
    return _REPORTS


def _announce(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _check_named(report, needle):
    rows = [c for c in report.checks if needle in c.name]
    assert rows, f"no check matching {needle!r} in {report.scene}"
    return all(c.passed for c in rows), max(c.value for c in rows)


def test_criterion_01_frenet_fidelity():
    samples = [-1.0 + 2.0 * i / 49 for i in range(50)]
    expected_k = {
        "pseudo-null-example": lambda s: (1.0, 4.0, 0.0),
        "partially-null-example": lambda s: (2.0, math.exp(s), 0.0),
        "null-example": lambda s: (1.0, 0.0, -1.0),
    }
    worst_gram = worst_ode = worst_k = 0.0
    for name in builtin_names():
        curve = builtin(name)
        rows = derive_frames(curve, samples)
        gres, _ = gram_residual(rows, curve.curve_class)
        worst_gram = max(worst_gram, float(gres.max()))
        rep = verify_frames(rows, curve, samples)
        worst_ode = max(worst_ode, float(rep.ode_residual.max()))
        for i, s in enumerate(samples):
            for got, want in zip((rows.k1[i], rows.k2[i], rows.k3[i]),
                                 expected_k[name](s)):
                worst_k = max(worst_k, abs(float(got) - want))
    ok = worst_gram <= 1e-8 and worst_ode <= 1e-5 and worst_k <= 1e-8
    _announce(1, ok, f"gram {worst_gram:.2e} (<=1e-8), "
                     f"ode {worst_ode:.2e} (<=1e-5), "
                     f"curvatures {worst_k:.2e} (<=1e-8)")


def test_criterion_02_envelope_identities(reports):
    worst_m = worst_n = 0.0
    ok = True
    for name, rep in reports.items():
        m_ok, m = _check_named(rep, "membership")
        n_ok, n = _check_named(rep, "normality")
        ok = ok and m_ok and n_ok
        worst_m, worst_n = max(worst_m, m), max(worst_n, n)
    _announce(2, ok, f"{len(reports)} families x 200 random points: "
                     f"membership {worst_m:.2e} (<=1e-9), "
                     f"normality {worst_n:.2e} (<=1e-5)")


def test_criterion_03_closed_forms_match_oracle(reports):
    ok = True
    min_pts = 10 ** 9
    for name in CANAL_SCENES + TUBULAR_SCENES:
        rep = reports[name]
        k_ok, _ = _check_named(rep, "K closed vs oracle")
        h_ok, _ = _check_named(rep, "H closed vs oracle")
        ok = ok and k_ok and h_ok and rep.points_checked >= 500
        min_pts = min(min_pts, rep.points_checked)
    _announce(3, ok, f"18 families, rel 1e-4 / abs 1e-6, "
                     f">= {min_pts} nonsingular points each")


def test_criterion_04_worked_example_points():
    pn = builtin("pseudo-null-example")
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    fr = derive_frame(pn, 1.0)
    pair = curvature_closed(fam, fr.k1, RadiusSpec.from_text("s/2").jet(1.0),
                            math.pi / 2, 1.0)
    ok1 = (abs(pair.K - 3.246620) <= 1e-5 and abs(pair.H + 1.062782) <= 1e-5)
    pt = builtin("partially-null-example")
    fam5 = CanalFamily(CurveClass.PARTIALLY_NULL, Variant.C5, 1)
    fr5 = derive_frame(pt, 1.0)
    pair5 = curvature_closed(fam5, fr5.k1,
                             RadiusSpec.from_text("s/2").jet(1.0), 0.0, 1.0)
    ok2 = (abs(pair5.K) <= 1e-9 and abs(pair5.H - 4.0 / 3.0) <= 1e-9)
    _announce(4, ok1 and ok2,
              f"pseudo null C1 (1,1,pi/2): K={pair.K:.6f}, H={pair.H:.6f}; "
              f"partially null C5 (1,0): K={pair5.K:.1e}, H={pair5.H:.9f}")


def test_criterion_05_linear_kh_relations(reports):
    ok = True
    worst = 0.0
    for name in CANAL_SCENES:
        rep = reports[name]
        r_ok, value = _check_named(rep, "K-H relation")
        ok = ok and r_ok
        worst = max(worst, value)
    _announce(5, ok, f"|3H - r^2 K +/- 2/r| worst {worst:.2e} (<=1e-9) "
                     f"across the ten canal variants")


def test_criterion_06_causal_character(reports):
    ok = True
    for name in CANAL_SCENES:
        rep = reports[name]
        e_ok, _ = _check_named(rep, "causal character")
        ok = ok and e_ok
    _announce(6, ok, "eps = +1 on C1-C4 scenes and -1 on C5 scenes, "
                     "both curve classes, every nonsingular point")


def test_criterion_07_tubular_constants():
    pn = builtin("pseudo-null-example")
    line = CurveSpec(components=tuple(parse(c) for c in ("0", "s", "0", "0")),
                     curve_class=CurveClass.PSEUDO_NULL,
                     completion_frame=((0, 1, 0, 0), (1, 0, 0, 1),
                                       (0, 0, 1, 0), (-0.5, 0, 0, 0.5)))
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.T1, 1)
    one = RadiusSpec.from_text("1")

    def lerp(lo, hi, i, n=20):
        return lo + (hi - lo) * i / (n - 1)

    i, j, k = (x.ravel() for x in np.meshgrid(*[np.arange(20)] * 3,
                                              indexing="ij"))
    # k1 = 1 (frames at s), g = sin f
    fld = field(fam, pn, one, ShapeSpec.from_text("w", "sin(w)"), None,
                lerp(0.2, 1.8, i), lerp(0.8, 1.6, k), lerp(0.3, 2.8, j))
    ks, hs = fld.K, fld.H
    ok1 = (not fld.singular.any()
           and np.ptp(ks) <= 1e-10 and np.ptp(hs) <= 1e-10
           and abs(ks[0] - 1.0) <= 1e-10 and abs(hs[0] + 1.0 / 3.0) <= 1e-10)

    # k1 = 0 (a straight line), f = w, g = t
    fld = field(fam, line, one, ShapeSpec.from_text("w", "t"), None,
                lerp(0.2, 1.8, i), lerp(0.8, 1.6, j), lerp(0.4, 2.7, k))
    ks, hs = fld.K, fld.H
    ok2 = (not fld.singular.any()
           and np.ptp(ks) <= 1e-10 and np.ptp(hs) <= 1e-10
           and ks[0] == 0.0 and abs(hs[0] + 2.0 / 3.0) <= 1e-10)
    _announce(7, ok1 and ok2,
              "k1=1, g=sin f, r=1: K=1, H=-1/3; k1=0, r=1: K=0, H=-2/3; "
              "variation <= 1e-10 over 20^3 grids")


def test_criterion_08_weingarten(reports):
    ok = True
    worst = 0.0
    for name in TUBULAR_SCENES:
        rep = reports[name]
        w_ok, value = _check_named(rep, "Weingarten")
        ok = ok and w_ok
        worst = max(worst, value)
    _announce(8, ok, f"all three mixed Jacobians of (H, K) worst "
                     f"{worst:.2e} (<=1e-6) over the scene grids, "
                     f"eight tubular variants")


def test_criterion_09_flat_minimal_conditions():
    fam = CanalFamily(CurveClass.PSEUDO_NULL, Variant.C1, 1)
    line = RadiusSpec.from_text("2*s+1")
    flat_ok = all(flat_residual(fam, line.jet(s), 0.0) == 0.0
                  for s in (0.1, 0.5, 1.3))

    def rk4(h_of, r0, span, n=1000):
        rs, h = [r0], span / n
        r = r0
        for _ in range(n):
            k1 = h_of(r)
            k2 = h_of(r + h / 2 * k1)
            k3 = h_of(r + h / 2 * k2)
            k4 = h_of(r + h * k3)
            r += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            rs.append(r)
        return rs, h

    def worst_residual(h_of, r0, span, sign):
        rs, h = rk4(h_of, r0, span)
        r1 = [h_of(r) for r in rs]
        worst = 0.0
        for i in range(2, len(rs) - 2):
            r2 = (-r1[i + 2] + 8 * r1[i + 1] - 8 * r1[i - 1] + r1[i - 2]) \
                / (12 * h)
            worst = max(worst, abs(2.0 + sign * (2.0 * r1[i] ** 2
                                                 + 3.0 * rs[i] * r2)))
        return worst

    a = 1.0
    res_pseudo = worst_residual(
        lambda r: math.sqrt(max(0.0, 1.0 - (a / r) ** (4.0 / 3.0))),
        1.2, 1.0, sign=-1)
    a = 2.0
    res_partial = worst_residual(
        lambda r: math.sqrt(max(0.0, (a / r) ** (4.0 / 3.0) - 1.0)),
        1.5, 0.5, sign=+1)
    ok = flat_ok and res_pseudo <= 1e-8 and res_partial <= 1e-8
    _announce(9, ok, f"r=as+b flat residual exactly 0: {flat_ok}; "
                     f"minimal trajectory residuals {res_pseudo:.2e} / "
                     f"{res_partial:.2e} (<=1e-8)")


def _reference_null_example_point(s, t, w):
    """Hand-derived closed form of the null worked example: NullC1 with
    r = s/2, a1 = t, theta = w, i.e.
    C = gamma + t F1 + rho cos(w) F2 - (s/4) F3 + rho sin(w) F4 with
    rho = sqrt((s/2)(s/2 + t)), expanded in Cartesian coordinates."""
    rho = math.sqrt((s / 2.0) * (s / 2.0 + t))
    u = 1.0 + rho * (math.cos(w) + math.sin(w))
    v = 1.0 - rho * (math.cos(w) - math.sin(w))
    ch, sh = math.cosh(s), math.sinh(s)
    sn, cs = math.sin(s), math.cos(s)
    pre = 1.0 / math.sqrt(2.0)
    return np.array([
        pre * ((t + s / 4.0) * ch + u * sh),
        pre * ((t + s / 4.0) * sh + u * ch),
        pre * ((t - s / 4.0) * cs + v * sn),
        pre * (-(t - s / 4.0) * sn + v * cs),
    ])


def test_criterion_10_null_worked_example():
    curve = builtin("null-example")
    fam = CanalFamily(CurveClass.NULL, Variant.NULL_C1, 1)
    radius = RadiusSpec.from_text("s/2")
    nc = NullCoefficients.from_text("t", "w")
    rng = random.Random(1234)
    h = 1e-4
    worst_m = worst_n = worst_e = 0.0
    for _ in range(200):
        s = rng.uniform(0.3, 0.9)
        t = rng.uniform(0.5, 1.5)
        w = rng.uniform(0.2, 2.9)
        p = _reference_null_example_point(s, t, w)
        gamma = curve.point(s)
        d = p - gamma
        r = s / 2.0
        worst_m = max(worst_m, abs(inner_rows(d, d) - r * r))
        d_s = (_reference_null_example_point(s + h, t, w)
               - _reference_null_example_point(s - h, t, w)) / (2 * h)
        worst_n = max(worst_n, abs(inner_rows(d, d_s)))
        got = evaluate_point(fam, curve, radius, None, nc, s, t, w)
        worst_e = max(worst_e, np.linalg.norm(got - p)
                      / max(1.0, np.linalg.norm(p)))
    ok = worst_m <= 1e-9 and worst_n <= 1e-5 and worst_e <= 1e-12
    _announce(10, ok,
              f"null C1 closed form (r=s/2, a1=t, theta=w), 200 points: "
              f"membership {worst_m:.2e} (<=1e-9), "
              f"normality {worst_n:.2e} (<=1e-5), "
              f"evaluate_point deviation {worst_e:.2e} (<=1e-12 rel)")


def test_criterion_11_mesh_determinism(tmp_path):
    ok = True
    for name in FIGURE_SCENES:
        scene = bundled_scene(name)
        blobs = []
        for run in range(2):
            mesh = sweep(scene)
            obj = tmp_path / f"{name}-{run}.obj"
            csv = tmp_path / f"{name}-{run}.csv"
            export_obj(mesh, obj)
            export_field(mesh, csv, "csv")
            blobs.append((obj.read_bytes(), csv.read_bytes()))
        ok = ok and blobs[0] == blobs[1]
    _announce(11, ok, "repeated sweeps of the three figure scenes produce "
                      "byte-identical OBJ and CSV files")
