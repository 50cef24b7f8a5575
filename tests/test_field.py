"""The batched field kernel (``canal.field``) and the batched Weingarten
residuals, checked against one-point evaluation.

The kernel must give every point the same bits whatever batch it is
evaluated in, derive each s value of a verify pass once, and reproduce the
residuals of a per-point loop over ``curvature_closed``.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lmcanal import canal, expr, oracle
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
JET_VECTORS = ("point", "d_s", "d_t", "d_w", "d_ss", "d_st", "d_sw", "d_tt",
               "d_tw", "d_ww")


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
    # the one-point adapters give row 0 of their batch kernels: a point of
    # ``field``, and the jets of ``stencil_jets`` on the stencils of all
    # the points
    def point(*p):
        got = canal.evaluate_point(scene.family, scene.curve, scene.radius,
                                   scene.shape, scene.nc, *p)
        assert got.shape == (4,)
        return got

    for i in range(0, n, 9):
        assert point(s[i], t[i], w[i]).tobytes() == whole.points[i].tobytes()
    h = scene.oracle_step
    jets = oracle.stencil_jets(scene.field(*oracle.stencil(s, t, w, h)).points,
                               h)
    for i in (0, n - 1):  # a random point and a grid point
        one = oracle.numeric_jet(point, s[i], t[i], w[i], h)
        for vector in JET_VECTORS:
            a, b = getattr(one, vector), getattr(jets, vector)[i:i + 1]
            assert a.shape == (1, 4) and a.tobytes() == b.tobytes(), vector


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
    # the shape walk covers the (t, w) pairs of every stencil: 576 here
    grid = canal_scene.grid
    assert tables == [9 * grid.n_t * grid.n_w]
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
    # one table stage on the 3 n_s s values and 9 n_t n_w (t, w) pairs of
    # the stencils of every grid point, the points on all 19 n_s n_t n_w
    # stencil rows and the closed side on the grid rows, as many kernel
    # calls for n_s = 2 as for the scene's n_s
    scene = bundled_scene(name)
    calls = []

    def counted(module, kernel, rows):
        real = getattr(module, kernel)

        def call(*args):
            calls.append((kernel, rows(*args)))
            return real(*args)
        monkeypatch.setattr(module, kernel, call)

    def params(tables, s_ix, tw_ix):
        s_ix, tw_ix = np.broadcast_arrays(s_ix, tw_ix)
        return np.stack([tables.s[s_ix], tables.t[tw_ix], tables.w[tw_ix]],
                        axis=1).tolist()

    counted(scene_mod, "field_tables",
            lambda *args: tuple(map(len, args[-3:])))
    counted(verify_mod, "field_points",
            lambda tables, s_ix, tw_ix: np.broadcast(s_ix, tw_ix).size)
    counted(verify_mod, "field_rows", params)
    monkeypatch.setattr(scene_mod, "field", None)  # no per-slab calls
    for n_s in (scene.grid.n_s, 2):
        calls.clear()
        grid = dataclasses.replace(scene.grid, n_s=n_s)
        assert verify_scene(dataclasses.replace(scene, grid=grid)).passed
        n_tw = grid.n_t * grid.n_w
        n = n_s * n_tw
        grid_points = np.stack(_grid_points(dataclasses.replace(
            scene, grid=grid)), axis=1).tolist()
        assert calls == [("field_tables", (3 * n_s, 9 * n_tw, 9 * n_tw)),
                         ("field_points", 19 * n),
                         ("field_rows", grid_points)]


def _weingarten_reference(scene, axes):
    """The per-point loop over the grid of the axes: six curvature_closed
    calls per point."""
    h = canal.WEINGARTEN_STEP

    def pair(s, t, w):
        f, g = scene.shape.values(t, w)
        return curvature_closed(scene.family, derive_frame(scene.curve, s).k1,
                                scene.radius.jet(s), f, g)

    worst = {"st": 0.0, "sw": 0.0, "tw": 0.0}
    n_points = n_singular = 0
    for s, t, w in itertools.product(*(np.asarray(x).tolist() for x in axes)):
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


def _assert_weingarten_matches(scene, axes):
    rep = weingarten_residuals(scene.family, scene.curve, scene.radius,
                               scene.shape, *axes)
    worst, n_points, n_singular = _weingarten_reference(scene, axes)
    for key in ("st", "sw", "tw"):
        assert getattr(rep, key) == worst[key], key
    assert (rep.points, rep.singular) == (n_points, n_singular)
    return rep


@pytest.mark.parametrize("name", TUBULAR_SCENES)
def test_weingarten_matches_per_point_loop(name):
    scene = bundled_scene(name)
    axes = _random_points(scene, 4, 7)
    rep = _assert_weingarten_matches(scene, axes)
    assert rep.points == 4 ** 3


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
    s, t, w = (scene.grid.values_of(axis) for axis in ("s", "t", "w"))
    # the grid w axis has a value on the pole; at pole -+ h only the
    # w-offset evaluations are on it
    w = w + [pole, pole - h, pole + h]
    rep = _assert_weingarten_matches(scene, (s, t, w))
    assert rep.singular > 0 and rep.points > 0
    # the pole value on the grid, the pole itself and both neighbours
    assert rep.singular == 4 * len(s) * len(t)


def test_check_weingarten_evaluates_the_closed_forms_on_the_axes(
        monkeypatch):
    scene = bundled_scene("pseudo-null-t1")
    n = verify_mod.WEINGARTEN_GRID
    calls = []
    real_frames, real_closed = canal.derive_frames, canal._closed

    def counted_frames(curve, s):
        calls.append(("derive_frames", np.shape(s)))
        return real_frames(curve, s)

    def counted_closed(family, *args):
        calls.append(("_closed", [np.shape(x) for x in args]))
        return real_closed(family, *args)

    monkeypatch.setattr(canal, "derive_frames", counted_frames)
    monkeypatch.setattr(canal, "_closed", counted_closed)
    report = VerifyReport(scene.name)
    check_weingarten(scene, report, Tolerances())
    assert report.passed
    column, row = (n, 1), (1, n * n)
    assert calls == ([("derive_frames", (3 * n,))]
                     + [("_closed", [column] * 4 + [row] * 2)] * 6)


def test_check_weingarten_makes_one_table_call_and_builds_no_fiber(
        monkeypatch):
    # the closed forms read the trig value T only, not the fiber
    scene = bundled_scene("pseudo-null-t1")
    n = verify_mod.WEINGARTEN_GRID
    calls, real = [], canal.field_tables

    def counted(*args):
        calls.append(tuple(map(len, args[-3:])))
        return real(*args)

    def no_fiber(*args):
        raise AssertionError("the fiber was built")

    monkeypatch.setattr(canal, "field_tables", counted)
    monkeypatch.setattr(canal, "_fiber", no_fiber)
    report = VerifyReport(scene.name)
    check_weingarten(scene, report, Tolerances())
    assert report.passed
    assert calls == [(3 * n, 5 * n * n, 5 * n * n)]


def _traced_peak(fn, *args) -> int:
    """Peak traced allocation of one call, first-call allocations
    excluded."""
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_check_weingarten_peak_memory_stays_below_the_grid_pass():
    # one direction's K and H are dropped before the next direction's are
    # made; keeping all six pairs alive measured 1.61 MB against 0.93 MB
    scene = bundled_scene("pseudo-null-t1")
    weingarten = _traced_peak(check_weingarten, scene,
                              VerifyReport(scene.name), Tolerances())
    assert weingarten <= _traced_peak(grid_table, scene)


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
