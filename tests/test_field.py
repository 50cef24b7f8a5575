"""The batched field kernel (``canal.field``) and the batched Weingarten
residuals, checked against one-point evaluation.

The kernel must give every point the same bits whatever batch it is
evaluated in, derive each distinct s once per call, and reproduce the
residuals of a per-point loop over ``curvature_closed``.
"""

import dataclasses
import math

import numpy as np
import pytest

from lmcanal import canal, expr
from lmcanal import scene as scene_mod
from lmcanal import verify as verify_mod
from lmcanal.canal import (RadiusSpec, SingularPointError, curvature_closed,
                           weingarten_residuals)
from lmcanal.curves import derive_frame
from lmcanal.scene import bundled_scene, parse_scene
from lmcanal.verify import (Tolerances, VerifyReport, check_curvatures,
                            check_weingarten, grid_table, verify_scene)

CLASSES = ("pseudo-null", "partially-null")
TUBULAR_SCENES = [f"{c}-t{k}" for c in CLASSES for k in range(1, 5)]
GATE_SCENES = ([f"{c}-c{k}" for c in CLASSES for k in range(1, 6)]
               + TUBULAR_SCENES + ["null-c1", "null-c2", "null-t1"])
FIELD_ARRAYS = ("points", "center", "r", "K", "H", "singular")


def _random_points(scene, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(*scene.grid.range_of(axis), n)
            for axis in ("s", "t", "w")]


def _grid_points(scene):
    """The scene's full 3D grid as (s, t, w) arrays, row-major."""
    axes = (scene.grid.values_of(axis) for axis in ("s", "t", "w"))
    return [x.ravel() for x in np.meshgrid(*axes, indexing="ij")]


def _rows(fld, index):
    return {name: None if getattr(fld, name) is None
            else getattr(fld, name)[index] for name in FIELD_ARRAYS}


def _assert_same_bits(got, want):
    for name in FIELD_ARRAYS:
        if want[name] is None:
            assert got[name] is None, name
        else:
            a, b = np.asarray(got[name]), np.asarray(want[name])
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("name", GATE_SCENES)
def test_field_is_batch_invariant(name):
    scene = bundled_scene(name)
    s, t, w = _random_points(scene, 30, GATE_SCENES.index(name))
    # grid points share s and (t, w) values with each other
    gs, gt, gw = (x[::37] for x in _grid_points(scene))
    s, t, w = (np.concatenate(pair) for pair in ((s, gs), (t, gt), (w, gw)))
    n = len(s)
    whole = scene.field(s, t, w)
    perm = np.random.default_rng(n).permutation(n)
    shuffled = scene.field(s[perm], t[perm], w[perm])
    doubled = scene.field(*(np.concatenate([x, x[::-1]]) for x in (s, t, w)))
    everything = _rows(whole, slice(None))
    _assert_same_bits(_rows(shuffled, np.argsort(perm)), everything)
    _assert_same_bits(_rows(doubled, slice(None, n)), everything)
    _assert_same_bits(_rows(doubled, slice(n, None)),
                      _rows(whole, slice(None, None, -1)))
    for i in range(0, n, 3):
        one = scene.field(s[i:i + 1], t[i:i + 1], w[i:i + 1])
        _assert_same_bits(_rows(one, 0), _rows(whole, i))


def test_check_curvatures_derives_each_s_once(monkeypatch):
    scene = bundled_scene("pseudo-null-c1")
    frames, jets = [], []
    real_frames, real_jet = canal.derive_frames, RadiusSpec.jet

    def counted_frames(curve, s):
        frames.extend(np.asarray(s, dtype=float).ravel().tolist())
        return real_frames(curve, s)

    def counted_jet(self, s):
        jets.extend(np.asarray(s, dtype=float).ravel().tolist())
        return real_jet(self, s)

    monkeypatch.setattr(canal, "derive_frames", counted_frames)
    monkeypatch.setattr(RadiusSpec, "jet", counted_jet)
    report = VerifyReport(scene.name)
    check_curvatures(grid_table(scene), report, Tolerances())
    assert report.passed
    h = scene.oracle_step
    # the oracle stencil reaches s and s +/- h of each grid s value
    distinct = {s + d * h for s in scene.grid.values_of("s")
                for d in (-1.0, 0.0, 1.0)}
    assert len(distinct) == 3 * scene.grid.n_s == 27
    assert sorted(frames) == sorted(jets) == sorted(distinct)


def test_field_walks_each_expression_once_per_call(monkeypatch):
    # shape and null data come from one eval_value walk per expression and
    # verify pass (or kernel call), whatever the number of points
    canal_scene, null_scene = (bundled_scene(n) for n in ("pseudo-null-c1",
                                                           "null-c1"))
    walks, tables = [], []
    real_walk, real_tables = expr.eval_value, scene_mod.field_tables

    def counted_walk(*args, **kwargs):
        walks.append(args[0])
        return real_walk(*args, **kwargs)

    def counted_tables(*args):
        tables.append(len(args[-1]))
        return real_tables(*args)

    monkeypatch.setattr(expr, "eval_value", counted_walk)
    monkeypatch.setattr(scene_mod, "field_tables", counted_tables)
    report = VerifyReport(canal_scene.name)
    check_curvatures(grid_table(canal_scene), report, Tolerances())
    assert report.passed
    assert len(tables) == 1 and tables[0] > 1000
    assert walks == [canal_scene.shape.f, canal_scene.shape.g]
    walks.clear()
    grid_table(null_scene)
    assert walks == [null_scene.nc.a1, null_scene.nc.theta]
    walks.clear()
    null_scene.field(*_random_points(null_scene, 500, 3))
    assert walks == [null_scene.nc.a1, null_scene.nc.theta]


@pytest.mark.parametrize("name", GATE_SCENES)
def test_verify_scene_makes_one_kernel_call_per_grid_s(monkeypatch, name):
    # envelope, curvatures and causal character all read the one grid pass:
    # one table stage on the stencils of every grid point, the points on all
    # 19 n_s n_t n_w stencil rows and the closed side on the grid rows (the
    # stencil centers come first), as many kernel calls for n_s = 2 as for
    # the scene's n_s
    scene = bundled_scene(name)
    calls = []

    def counted(module, kernel, rows):
        real = getattr(module, kernel)

        def call(*args):
            calls.append((kernel, rows(*args)))
            return real(*args)
        monkeypatch.setattr(module, kernel, call)

    counted(scene_mod, "field_tables", lambda *args: len(args[-1]))
    counted(verify_mod, "field_points", lambda tables: len(tables.s_ix))
    counted(verify_mod, "field_rows", lambda tables, rows: np.arange(
        len(tables.s_ix))[rows].tolist())
    monkeypatch.setattr(scene_mod, "field", None)  # no per-slab calls
    for n_s in (scene.grid.n_s, 2):
        calls.clear()
        grid = dataclasses.replace(scene.grid, n_s=n_s)
        assert verify_scene(dataclasses.replace(scene, grid=grid)).passed
        n = n_s * grid.n_t * grid.n_w
        assert calls == [("field_tables", 19 * n), ("field_points", 19 * n),
                         ("field_rows", list(range(n)))]


def _weingarten_reference(scene, points):
    """The per-point loop: six curvature_closed calls per point."""
    h = canal.WEINGARTEN_STEP

    def pair(s, t, w):
        f, g = scene.shape.values(t, w)
        return curvature_closed(scene.family, derive_frame(scene.curve, s).k1,
                                scene.radius.jet(s), f, g)

    worst = {"st": 0.0, "sw": 0.0, "tw": 0.0}
    n_points = n_singular = 0
    for s, t, w in points:
        try:
            ks = [pair(s + h, t, w), pair(s - h, t, w), pair(s, t + h, w),
                  pair(s, t - h, w), pair(s, t, w + h), pair(s, t, w - h)]
        except SingularPointError:
            n_singular += 1
            continue
        d = [((a.H - b.H) / (2 * h), (a.K - b.K) / (2 * h))
             for a, b in (ks[0:2], ks[2:4], ks[4:6])]
        for key, (i, j) in (("st", (0, 1)), ("sw", (0, 2)), ("tw", (1, 2))):
            res = abs(d[i][0] * d[j][1] - d[j][0] * d[i][1])
            worst[key] = max(worst[key], res)
        n_points += 1
    return worst, n_points, n_singular


def _assert_weingarten_matches(scene, points):
    rep = weingarten_residuals(scene.family, scene.curve, scene.radius,
                               scene.shape, points)
    worst, n_points, n_singular = _weingarten_reference(scene, points)
    for key in ("st", "sw", "tw"):
        assert getattr(rep, key) == pytest.approx(worst[key], rel=1e-12,
                                                  abs=0.0), key
    assert (rep.points, rep.singular) == (n_points, n_singular)
    return rep


@pytest.mark.parametrize("name", TUBULAR_SCENES)
def test_weingarten_matches_per_point_loop(name):
    scene = bundled_scene(name)
    points = list(zip(*(x.tolist() for x in _random_points(scene, 50, 7))))
    rep = _assert_weingarten_matches(scene, points)
    assert rep.points == 50


@pytest.mark.parametrize("curve, variant, pole", [
    ("pseudo-null-example", "T1", math.pi),          # sin f = 0
    ("partially-null-example", "T2", math.pi / 2),   # cos f = 0
])
def test_weingarten_singular_counts_across_a_pole(curve, variant, pole):
    scene = parse_scene({
        "version": 1, "curve": {"builtin": curve},
        "family": {"variant": variant}, "radius": "1/2",
        "shape": {"f": "w", "g": "t"},
        "grid": {"s": [0.3, 0.9, 4], "t": [0.9, 1.5, 4],
                 "w": [pole - 0.4, pole + 0.4, 5]}})
    h = canal.WEINGARTEN_STEP
    # the grid has points on the pole; for these two only an offset is
    edge = [[0.5, 1.2, pole - h], [0.6, 1.0, pole + h]]
    points = np.concatenate([np.stack(_grid_points(scene), axis=1), edge])
    rep = _assert_weingarten_matches(scene, points)
    assert rep.singular > 0 and rep.points > 0


def test_check_weingarten_fails_when_every_point_is_singular():
    # f = 0 puts every closed-form evaluation on the csc pole of T1
    scene = parse_scene({
        "version": 1, "curve": {"builtin": "pseudo-null-example"},
        "family": {"variant": "T1"}, "radius": "1/2",
        "shape": {"f": "0", "g": "t"},
        "grid": {"s": [0.3, 0.9, 4], "t": [0.9, 1.5, 4], "w": [0.5, 2.5, 4]}})
    report = VerifyReport(scene.name)
    check_weingarten(scene, report, Tolerances())
    guard = [c for c in report.checks
             if c.name.startswith("Weingarten points")]
    assert [c.name for c in guard] == [
        "Weingarten points >= 1 (got 0, 8000 singular)"]
    assert not guard[0].passed and not report.passed
