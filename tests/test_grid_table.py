"""``verify.grid_table`` in one stencil batch, checked bit for bit against
the slab-wise recipe it replaces, and its memory held to a per-row bound.

The reference evaluates the scene one grid s value at a time: one
``scene.field`` call on the oracle's 19-point stencils of that s value's
grid points, then ``stencil_jets``, ``forms_batch`` and
``curvatures_batch`` on the slab.  Since the kernel gives every point the
same bits in any batch, the one-batch table must equal the concatenated
slabs byte for byte.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from lmcanal import oracle
from lmcanal.canal import closed_form_gauge
from lmcanal.minkowski import inner_rows
from lmcanal.scene import bundled_scene
from lmcanal.verify import GridTable, grid_table, scene_tables

CLASSES = ("pseudo-null", "partially-null")
GATE_SCENES = ([f"{c}-c{k}" for c in CLASSES for k in range(1, 6)]
               + [f"{c}-t{k}" for c in CLASSES for k in range(1, 5)]
               + ["null-c1", "null-c2", "null-t1"])
FIGURE_SCENES = ["pseudo-null-c1-figure", "partially-null-c5-figure",
                 "null-c1-figure"]
COLUMNS = ("membership", "normality", "eps", "k_closed", "h_closed",
           "k_oracle", "h_oracle", "r", "nonsingular")
#: Peak traced allocation of one grid_table call per stencil row: 18
#: float64 columns.
PEAK_BYTES_PER_STENCIL_ROW = 18 * 8
#: Memory the returned table may hold per grid point: 12 float64 columns.
HELD_BYTES_PER_GRID_POINT = 12 * 8


def _slab(scene, s, t, w):
    """Table columns of one grid s value from a field call on its
    stencils."""
    fam = scene.family
    n = len(s)
    h = scene.oracle_step
    fld = scene.field(*oracle.stencil(s, t, w, h))
    jet = oracle.stencil_jets(fld.points, h)
    forms, degenerate = oracle.forms_batch(jet)
    K, H, metric_singular = oracle.curvatures_batch(forms)
    radial = jet.point - fld.center[:n]
    r = fld.r[:n]
    flip = closed_form_gauge(fam.variant) * np.where(
        fam.lam * inner_rows(forms.normal, radial) > 0, 1, -1)
    closed = ((np.full(n, np.nan),) * 2 if fld.K is None
              else (fld.K[:n], fld.H[:n]))
    return (np.abs(inner_rows(radial, radial) - fam.lam * r * r),
            np.abs(inner_rows(radial, jet.d_s)),
            np.where(degenerate, 0, forms.eps),
            *closed, flip * K, flip * H, r,
            ~(fld.singular[:n] | degenerate | metric_singular))


def _slab_reference(scene) -> GridTable:
    grid = scene.grid
    t, w = (x.ravel() for x in np.meshgrid(grid.values_of("t"),
                                           grid.values_of("w"), indexing="ij"))
    slabs = [_slab(scene, np.full(len(t), s), t, w)
             for s in grid.values_of("s")]
    return GridTable(scene.family,
                     *(np.concatenate(column) for column in zip(*slabs)))


@pytest.mark.parametrize("name", GATE_SCENES + FIGURE_SCENES)
def test_grid_table_matches_slab_reference_bit_for_bit(name):
    scene = bundled_scene(name)
    got, want = grid_table(scene_tables(scene)), _slab_reference(scene)
    assert got.family == want.family
    for column in COLUMNS:
        a, b = getattr(got, column), getattr(want, column)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), column
        assert a.tobytes() == b.tobytes(), column


@pytest.mark.parametrize("name", ["pseudo-null-c1", "partially-null-t3",
                                  "null-c2"])
def test_grid_table_row_i_lies_at_point_i_of_the_grid_axes(name):
    # row i is (s[i // n_tw], t[i % n_tw], w[i % n_tw]) of grid.axes(),
    # the s values by the (t, w) pairs, t slower, whatever the fixed axis
    scene = bundled_scene(name)
    grid = scene.grid
    s, t, w = grid.axes()
    assert s.tolist() == grid.values_of("s")
    assert list(zip(t.tolist(), w.tolist())) == list(itertools.product(
        grid.values_of("t"), grid.values_of("w")))
    i = np.arange(len(s) * len(t))
    fld = scene.field(s[i // len(t)], t[i % len(t)], w[i % len(t)])
    table = grid_table(scene_tables(scene))
    for got, want in ((table.r, fld.r), (table.k_closed, fld.K),
                      (table.h_closed, fld.H)):
        if want is None:  # null families: the radius alone places a row
            continue
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", GATE_SCENES + FIGURE_SCENES)
def test_grid_stencil_rows_are_the_stencils_of_the_grid_bit_for_bit(name):
    scene = bundled_scene(name)
    grid, h = scene.grid, scene.oracle_step
    t, w = (x.ravel() for x in np.meshgrid(grid.values_of("t"),
                                           grid.values_of("w"), indexing="ij"))
    (S, T, W), (s_ix, tw_ix) = oracle.grid_stencil(grid.values_of("s"), t, w,
                                                   h)
    assert (len(S), len(T), len(W)) == (3 * grid.n_s, 9 * len(t), 9 * len(t))
    assert s_ix.shape == (19, grid.n_s, 1) and tw_ix.shape == (19, 1, len(t))
    points = (x.ravel() for x in np.meshgrid(
        *(grid.values_of(axis) for axis in ("s", "t", "w")), indexing="ij"))
    shape = (19, grid.n_s, len(t))
    for got, want in zip((S[s_ix], T[tw_ix], W[tw_ix]),
                         oracle.stencil(*points, h)):
        got = np.broadcast_to(got, shape).ravel()
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["pseudo-null-c1", "pseudo-null-t1",
                                  "null-c1"])
def test_grid_table_memory_is_bounded_per_row(name):
    scene = bundled_scene(name)
    grid = scene.grid
    n = grid.n_s * grid.n_t * grid.n_w
    grid_table(scene_tables(scene))  # first-call allocations excluded
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = grid_table(scene_tables(scene))
        held, peak = (x - base for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES_PER_STENCIL_ROW * len(oracle.STENCIL) * n
    # no column may be a view keeping a stencil-sized array alive
    assert held <= HELD_BYTES_PER_GRID_POINT * n
    assert all(getattr(table, c).base is None or getattr(table, c).base.size
               <= n for c in COLUMNS)
