"""The batched field kernel (``canal.field``) and the batched Weingarten
residuals, checked against one-point evaluation.

The kernel must give every point the same bits whatever batch it is
evaluated in, derive each s value of a verify pass once, and reproduce the
residuals of a per-point loop over ``curvature_closed``.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lmcanal import canal, expr, oracle
from lmcanal import mesh as mesh_mod
from lmcanal import scene as scene_mod
from lmcanal import verify as verify_mod
from lmcanal.canal import (RadiusSpec, SingularPointError, curvature_closed,
                           weingarten_residuals)
from lmcanal.curves import derive_frame
from lmcanal.scene import bundled_scene, parse_scene
from lmcanal.verify import (VerifyReport, check_curvatures, check_weingarten,
                            grid_table, scene_tables, verify_scene)

CLASSES = ("pseudo-null", "partially-null")
TUBULAR_SCENES = [f"{c}-t{k}" for c in CLASSES for k in range(1, 5)]
GATE_SCENES = ([f"{c}-c{k}" for c in CLASSES for k in range(1, 6)]
               + TUBULAR_SCENES + ["null-c1", "null-c2", "null-t1"])
FIGURE_SCENES = ["pseudo-null-c1-figure", "partially-null-c5-figure",
                 "null-c1-figure"]
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


@pytest.mark.parametrize("name", GATE_SCENES + FIGURE_SCENES)
def test_row_stages_on_broadcast_blocks_equal_raveled_rows(name):
    # the stencil's (19, n_s, 1) by (19, 1, n_tw) blocks and the grid's
    # (n_s, 1) by (1, n_tw) block give the bits of the raveled rows
    scene = bundled_scene(name)
    grid = scene.grid
    t, w = (x.ravel() for x in np.meshgrid(grid.values_of("t"),
                                           grid.values_of("w"), indexing="ij"))
    axes, stencil_blocks = oracle.grid_stencil(grid.values_of("s"), t, w,
                                               scene.oracle_step)
    tables = scene.tables(*axes)
    grid_blocks = tuple(ix[0] for ix in stencil_blocks)
    for blocks, stage in ((stencil_blocks, canal.field_points),
                          (grid_blocks, canal.field_points),
                          (grid_blocks, canal.field_rows)):
        shape = np.broadcast_shapes(*(ix.shape for ix in blocks))
        rows = [np.broadcast_to(ix, shape).ravel() for ix in blocks]
        got, want = stage(tables, *blocks), stage(tables, *rows)
        if stage is canal.field_points:
            got, want = [got], [want]
        for a, b in zip(got, want):
            if b is None:
                assert a is None
                continue
            a = np.broadcast_to(a, shape + b.shape[1:]).reshape(b.shape)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    check_curvatures(grid_table(scene_tables(scene)), report)
    assert report.passed
    h = scene.oracle_step
    # the oracle stencil reaches s and s +/- h of each grid s value
    distinct = {s + d * h for s in scene.grid.values_of("s")
                for d in (-1.0, 0.0, 1.0)}
    assert len(distinct) == 3 * scene.grid.n_s == 27
    assert sorted(frames) == sorted(jets) == sorted(distinct)


def test_field_walks_each_expression_once_per_call(monkeypatch):
    # shape and null data come from one eval_value walk per expression and
    # verify pass (or kernel call), whatever the number of points, on the
    # table that the expression's variables span
    canal_scene, null_scene = (bundled_scene(n) for n in ("pseudo-null-c1",
                                                           "null-c1"))
    walks, sizes, tables = [], [], []
    real_walk, real_tables = expr.eval_value, scene_mod.field_tables

    def counted_walk(e, **at):
        walks.append(e)
        sizes.append(np.broadcast_shapes(*(np.shape(x) for x in at.values())))
        return real_walk(e, **at)

    def counted_tables(*args):
        tables.append(len(args[-1]))
        return real_tables(*args)

    monkeypatch.setattr(expr, "eval_value", counted_walk)
    monkeypatch.setattr(scene_mod, "field_tables", counted_tables)
    report = VerifyReport(canal_scene.name)
    check_curvatures(grid_table(scene_tables(canal_scene)), report)
    assert report.passed
    # the shape walk covers the (t, w) pairs of every stencil: 576 here
    grid = canal_scene.grid
    assert tables == [9 * grid.n_t * grid.n_w]
    assert walks == [canal_scene.shape.f, canal_scene.shape.g]
    walks.clear()
    sizes.clear()
    grid_table(scene_tables(null_scene))
    assert walks == [null_scene.nc.a1, null_scene.nc.theta]
    # a1 = t and theta = w read no s: they are walked on the 9 n_t n_w
    # (t, w) pairs of the stencils, not on the 19 n_s n_t n_w stencil rows
    grid = null_scene.grid
    n_tw = grid.n_t * grid.n_w
    assert sizes == [(9 * n_tw,)] * 2
    walks.clear()
    null_scene.field(*_random_points(null_scene, 500, 3))
    assert walks == [null_scene.nc.a1, null_scene.nc.theta]
    # an expression that reads s is walked at the 19 n_s n_t n_w rows
    walks.clear()
    sizes.clear()
    nc = canal.NullCoefficients.from_text("t", "s")
    grid_table(scene_tables(null_scene._replace(nc=nc)))
    assert walks == [nc.a1, nc.theta]
    assert sizes == [(9 * n_tw,), (19, grid.n_s, n_tw)]


#: (a1, theta) free data on the null example curve, each on a null gate
#: scene where rho^2 = lambda r (r + 2 a1 r') >= 0: a1 and theta on the
#: (t, w) table (constants included) or, where they read s, walked at the
#: rows
NULL_DATA = [("null-c1", "t", "w"), ("null-c2", "-s-t", "w"),
             ("null-c1", "s", "1"), ("null-c1", "0", "w"),
             ("null-c1", "t^2+s", "w+s*t"), ("null-t1", "-s-t", "w"),
             ("null-t1", "t^2+s", "w+s*t")]


def _null_scene(name, a1, theta):
    return bundled_scene(name)._replace(
        nc=canal.NullCoefficients.from_text(a1, theta))


@pytest.mark.parametrize("name, a1, theta", NULL_DATA)
def test_null_points_on_blocks_equal_field_on_raveled_rows(name, a1, theta):
    # verify's (19, n_s, 1) by (19, 1, n_tw) blocks and sweep's blocks
    # give the bits of ``field`` on the same rows raveled
    scene = _null_scene(name, a1, theta)
    assert scene.curve.name == "null-example"
    axes, blocks = oracle.grid_stencil(*scene.grid.axes(), scene.oracle_step)
    tables = scene.tables(*axes)
    got = canal.field_points(tables, *blocks)
    s_ix, tw_ix = (x.ravel() for x in np.broadcast_arrays(*blocks))
    want = scene.field(tables.s[s_ix], tables.t[tw_ix], tables.w[tw_ix])
    assert got.shape == blocks[0].shape[:2] + blocks[1].shape[2:] + (4,)
    assert got.reshape(-1, 4).tobytes() == want.points.tobytes()
    fixed = scene._replace(grid=bundled_scene(
        "null-c1-figure").grid)
    mesh = mesh_mod.sweep(fixed)
    want = fixed.field(*mesh.params.T)
    assert mesh.points.tobytes() == want.points.tobytes()


def test_null_table_domain_error_names_the_first_failing_pair():
    # theta = ln(w - 1) reads no s, so the table stage walks it on the
    # (t, w) pairs and names the first pair that leaves the domain
    scene = _null_scene("null-c1", "t", "ln(w - 1)")
    axes, _ = oracle.grid_stencil(*scene.grid.axes(), scene.oracle_step)
    _, t, w = axes
    j = int(np.argmax(w - 1.0 <= 0.0))
    with pytest.raises(expr.DomainError) as e:
        scene.tables(*axes)
    t, w = float(t[j]), float(w[j])
    assert str(e.value) == (f"ln of non-positive value {w - 1.0!r} "
                            f"where t={t!r}, w={w!r}")


@pytest.mark.parametrize("a1", ["0", "-t", "s-1"])
def test_null_rho_error_names_the_first_failing_row(a1):
    # rho^2 reads r(s) and a1, so it is a row computation: the error
    # names its value on the first stencil row where it is negative,
    # whichever table a1 is read from
    scene = _null_scene("null-c2" if a1 == "0" else "null-c1", a1, "w")
    axes, blocks = oracle.grid_stencil(*scene.grid.axes(), scene.oracle_step)
    tables = scene.tables(*axes)
    s_ix, tw_ix = np.broadcast_arrays(*blocks)
    s, t, w = tables.s[s_ix], tables.t[tw_ix], tables.w[tw_ix]
    r, r1 = scene.radius.jet(s)[:2]
    lam = scene.family.lam
    rho = lam * r * (r + 2.0 * expr.eval_value(scene.nc.a1, s=s, t=t, w=w)
                     * r1)
    assert np.any(rho < 0)
    first = float(rho[rho < 0][0])
    with pytest.raises(canal.RegimeError) as e:
        canal.field_points(tables, *blocks)
    assert str(e.value) == f"rho^2 = lambda*r*(r + 2*a1*r') = {first} < 0"


@pytest.mark.parametrize("name", GATE_SCENES)
def test_verify_scene_makes_one_kernel_call_per_grid_s(monkeypatch, name):
    # every check reads the one table stage: the 3 n_s s values and
    # 9 n_t n_w (t, w) pairs of the stencils of every grid point; the
    # points on (19, n_s, 1) by (19, 1, n_t n_w) index blocks and the
    # closed side on the grid block, for tubular scenes as for canal and
    # null ones (no other field_rows call, through canal or verify); as
    # many kernel calls for n_s = 2 as for the scene's n_s
    scene = bundled_scene(name)
    calls = []

    def counted(module, kernel, rows):
        real = getattr(module, kernel)

        def call(*args):
            calls.append((f"{module.__name__}.{kernel}", rows(*args)))
            return real(*args)
        monkeypatch.setattr(module, kernel, call)

    def params(tables, s_ix, tw_ix):
        s_ix, tw_ix = np.broadcast_arrays(s_ix, tw_ix)
        return np.stack([tables.s[s_ix], tables.t[tw_ix], tables.w[tw_ix]],
                        axis=-1).reshape(-1, 3).tolist()

    def shapes(tables, s_ix, tw_ix):
        return np.shape(s_ix), np.shape(tw_ix)

    counted(scene_mod, "field_tables",
            lambda *args: tuple(map(len, args[-3:])))
    counted(verify_mod, "field_points", shapes)
    counted(verify_mod, "field_rows", params)
    counted(canal, "field_rows", shapes)
    monkeypatch.setattr(scene_mod, "field", None)  # no per-slab calls
    for n_s in (scene.grid.n_s, 2):
        calls.clear()
        grid = scene.grid._replace(n_s=n_s)
        assert verify_scene(scene._replace(grid=grid)).passed
        n_tw = grid.n_t * grid.n_w
        grid_points = np.stack(_grid_points(scene._replace(grid=grid)),
                               axis=1).tolist()
        assert calls == [
            ("lmcanal.scene.field_tables", (3 * n_s, 9 * n_tw, 9 * n_tw)),
            ("lmcanal.verify.field_points", ((19, n_s, 1), (19, 1, n_tw))),
            ("lmcanal.verify.field_rows", grid_points)]


def _weingarten_reference(scene, axes, h):
    """The per-point loop over the grid of the axes: six curvature_closed
    calls per point, with step h.  Frames and radius jets are derived once
    per s value."""
    @functools.cache
    def k1_and_jet(s):
        return derive_frame(scene.curve, s).k1, scene.radius.jet(s)

    def pair(s, t, w):
        f, g = scene.shape.values(t, w)
        return curvature_closed(scene.family, *k1_and_jet(s), f, g)

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


def _weingarten(scene, axes, h):
    """Weingarten residuals on the grid of the axes: the grid's stencil,
    then the scene's tables, then residuals on stencil rows 1-6."""
    s, t, w = axes
    t, w = (x.ravel() for x in np.meshgrid(t, w, indexing="ij"))
    table_axes, (s_ix, tw_ix) = oracle.grid_stencil(s, t, w, h)
    return weingarten_residuals(scene.tables(*table_axes), s_ix[1:7],
                                tw_ix[1:7], h)


def _assert_weingarten_matches(scene, axes, h):
    rep = _weingarten(scene, axes, h)
    worst, n_points, n_singular = _weingarten_reference(scene, axes, h)
    for key in ("st", "sw", "tw"):
        assert getattr(rep, key) == worst[key], key
    assert (rep.points, rep.singular) == (n_points, n_singular)
    return rep


@pytest.mark.parametrize("name", TUBULAR_SCENES)
def test_weingarten_matches_per_point_loop(name):
    # check_weingarten's rows on the scene's grid and oracle step are the
    # per-point loop's, bit for bit
    scene = bundled_scene(name)
    grid = scene.grid
    worst, n_points, n_singular = _weingarten_reference(
        scene, [grid.values_of(axis) for axis in ("s", "t", "w")],
        scene.oracle_step)
    report = VerifyReport(scene.name)
    check_weingarten(scene_tables(scene), report)
    assert [(c.name, c.value) for c in report.checks] == [
        ("Weingarten |H_s K_t - H_t K_s|", worst["st"]),
        ("Weingarten |H_s K_w - H_w K_s|", worst["sw"]),
        ("Weingarten |H_t K_w - H_w K_t|", worst["tw"]),
        (f"Weingarten points >= 1 (got {n_points}, {n_singular} singular)",
         0.0)]
    assert report.passed
    assert (n_points, n_singular) == (grid.n_s * grid.n_t * grid.n_w, 0)


@pytest.mark.parametrize("curve, variant, g, pole", [
    # D = 2g - r k1 sin f = (1 - sin f)/2 with k1 = 1
    ("pseudo-null-example", "T1", "1/4", math.pi / 2),
    # D = 1 - r k1 cos f = 1 - cos f with k1 = 2
    ("partially-null-example", "T2", "t", 0.0),
])
def test_weingarten_singular_counts_across_a_pole(curve, variant, g, pole):
    scene = parse_scene({
        "version": 1, "curve": {"builtin": curve},
        "family": {"variant": variant}, "radius": "1/2",
        "shape": {"f": "w", "g": g},
        "grid": {"s": [0.3, 0.9, 4], "t": [0.9, 1.5, 4],
                 "w": [pole - 0.4, pole + 0.4, 5]}})
    h = scene.oracle_step
    s, t, w = (scene.grid.values_of(axis) for axis in ("s", "t", "w"))
    # the grid w axis has a value on the pole; at pole -+ h only the
    # w-offset evaluations are on it
    w = w + [pole, pole - h, pole + h]
    rep = _assert_weingarten_matches(scene, (s, t, w), h)
    assert rep.singular > 0 and rep.points > 0
    # the pole value on the grid, the pole itself and both neighbours
    assert rep.singular == 4 * len(s) * len(t)


def test_check_weingarten_evaluates_the_closed_forms_once_on_the_stencil(
        monkeypatch):
    # the frames come from the one table stage; check_weingarten itself
    # only evaluates closed forms, in one call on stencil rows 1-6
    scene = bundled_scene("pseudo-null-t1")
    grid = scene.grid
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
    tables = scene_tables(scene)
    assert calls == [("derive_frames", (3 * grid.n_s,))]
    calls.clear()
    report = VerifyReport(scene.name)
    check_weingarten(tables, report)
    assert report.passed
    column, row = (6, grid.n_s, 1), (6, 1, grid.n_t * grid.n_w)
    assert calls == [("_closed", [column] * 4 + [row] * 2)]


def test_check_weingarten_builds_no_table_and_no_fiber(monkeypatch):
    # the tables come from the scene's one table stage, and the closed
    # forms read the trig value T only, not the fiber
    scene = bundled_scene("pseudo-null-t1")
    tables = scene_tables(scene)

    def no_call(*args):
        raise AssertionError("called")

    for module, name in ((canal, "field_tables"), (scene_mod, "field_tables"),
                         (canal, "derive_frames"), (canal, "_fiber")):
        monkeypatch.setattr(module, name, no_call)
    report = VerifyReport(scene.name)
    check_weingarten(tables, report)
    assert report.passed


@pytest.mark.parametrize("name", TUBULAR_SCENES)
def test_check_weingarten_reads_the_offset_rows_of_the_grid_stencil(
        monkeypatch, name):
    # the closed forms are evaluated at s + h, s - h, t + h, t - h, w + h
    # and w - h around every grid point, in that block order (rows 1-6 of
    # oracle.STENCIL), with h the scene's oracle step
    scene = bundled_scene(name)
    tables = scene_tables(scene)
    seen = []
    real = canal.field_rows

    def recorded(ft, s_ix, tw_ix):
        s_b, tw_b = np.broadcast_arrays(s_ix, tw_ix)
        seen.append(np.stack([ft.s[s_b], ft.t[tw_b], ft.w[tw_b]], axis=-1))
        return real(ft, s_ix, tw_ix)

    monkeypatch.setattr(canal, "field_rows", recorded)
    check_weingarten(tables, VerifyReport(name))
    got, = seen
    grid = scene.grid
    points = np.stack(_grid_points(scene), axis=-1).reshape(
        grid.n_s, grid.n_t * grid.n_w, 3)
    offsets = np.array(oracle.STENCIL[1:7]) * scene.oracle_step
    want = points[None] + offsets[:, None, None, :]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
    # the six offset rows' closed forms are one stacked call on the grid;
    # both stages read the scene's one table stage, built beforehand
    scene = bundled_scene("pseudo-null-t1")
    tables = scene_tables(scene)
    weingarten = _traced_peak(check_weingarten, tables,
                              VerifyReport(scene.name))
    assert weingarten <= _traced_peak(grid_table, tables)


def test_check_weingarten_fails_when_every_point_is_singular():
    # g = sin(w)/4 puts every closed-form evaluation of T1 on its pole
    # D = 2g - r k1 sin f = 0 (r = 1/2, k1 = 1, f = w)
    scene = parse_scene({
        "version": 1, "curve": {"builtin": "pseudo-null-example"},
        "family": {"variant": "T1"}, "radius": "1/2",
        "shape": {"f": "w", "g": "sin(w)/4"},
        "grid": {"s": [0.3, 0.9, 4], "t": [0.9, 1.5, 4], "w": [0.5, 2.5, 4]}})
    report = VerifyReport(scene.name)
    check_weingarten(scene_tables(scene), report)
    guard = [c for c in report.checks
             if c.name.startswith("Weingarten points")]
    assert [c.name for c in guard] == [
        "Weingarten points >= 1 (got 0, 64 singular)"]
    assert not guard[0].passed and not report.passed
