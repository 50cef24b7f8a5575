"""Grid sweeps, projection, OBJ/field export and their determinism.

The export digests of the figure scenes and the pole sweep are pinned in
``tests/data/mesh_exports.sha256``.  To regenerate it after an intended
change of results:

    PYTHONPATH=src python tests/test_mesh.py > tests/data/mesh_exports.sha256
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest

from lmcanal import canal
from lmcanal import scene as scene_mod
from lmcanal.canal import CurvaturePair, relation_residual
from lmcanal.cli import main
from lmcanal.mesh import (AXES, EXPORT_BLOCK_ROWS, FIELD_COLUMNS, GridSpec,
                          MeshError, ProjectedMesh, export, export_field,
                          export_obj, sweep)
from lmcanal.scene import bundled_scene, parse_scene

#: sha256 of the OBJ, CSV and JSON exports of the figure scenes and the
#: pole sweep on their own grids, one ``<hex>  <case>.<kind>`` line each:
#: export speed-ups must not move a byte.
PINNED = pathlib.Path(__file__).parent / "data" / "mesh_exports.sha256"
FIGURE_SCENES = ("pseudo-null-c1-figure", "partially-null-c5-figure",
                 "null-c1-figure")


def _channel(mesh, values) -> list:
    """A curvature channel per vertex: a float, or None on singular
    vertices and for families without closed forms."""
    if values is None:
        return [None] * len(mesh.points)
    return np.where(mesh.singular, None, values).tolist()


def test_grid_validation():
    with pytest.raises(MeshError):
        GridSpec((0, 1), (0, 1), (0, 1), 1, 2, 2, "w", 0.0)  # n_s = 1
    with pytest.raises(MeshError):
        GridSpec((0, 1), (0, 1), (0, 1), 2, 2, 1, "w", 0.0)  # fixed n_w = 1
    with pytest.raises(MeshError):
        GridSpec((1, 1), (0, 1), (0, 1), 2, 2, 2, "w", 0.0)  # empty range
    with pytest.raises(MeshError):
        GridSpec((0, 1), (0, 1), (0, 1), 2, 2, 2, "q", 0.0)  # bad axis
    with pytest.raises(MeshError, match="s range .* too wide"):
        GridSpec((-1e308, 1e308), (0, 1), (0, 1), 3, 2, 2)  # hi - lo = inf
    with pytest.raises(MeshError, match="t range .* too wide"):
        GridSpec((0, 1), (-1e308, 1e308), (0, 1), 2, 3, 2, "w", 0.0)
    with pytest.raises(MeshError, match="w range .* too wide"):
        GridSpec((0, 1), (0, 1), (0.0, 1.7e308), 2, 2, 3)  # 2 (hi - lo) = inf
    # a fixed axis and a finite fixed value come together or not at all
    for axis, value in (("w", None), ("w", math.nan), ("w", math.inf),
                        (None, 0.0)):
        with pytest.raises(MeshError, match="fixed axis needs a finite"):
            GridSpec((0, 1), (0, 1), (0, 1), 2, 2, 2, axis, value)
    # the widest grids whose samples stay finite are accepted
    wide = GridSpec((-4e307, 4e307), (0, 1), (0.0, 1.7e308), 3, 2, 2)
    assert wide.values_of("s") == [-4e307, 0.0, 4e307]
    assert wide.values_of("w") == [0.0, 1.7e308]


def test_obj_contract_2x2(tmp_path):
    scene = bundled_scene("pseudo-null-c1-figure")
    mesh = sweep(scene._replace(grid=scene.grid._replace(n_s=2, n_t=2)))
    assert len(mesh.vertices) == 4
    assert mesh.quads == [(0, 1, 3, 2)]
    path = tmp_path / "square.obj"
    export_obj(mesh, path)
    lines = path.read_text().splitlines()
    assert len([l for l in lines if l.startswith("v ")]) == 4
    assert lines[-1] == "f 1 2 4 3"


def test_export_determinism(tmp_path):
    scene = bundled_scene("pseudo-null-c1-figure")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    8, 8, 2, scene.grid.fixed_axis, scene.grid.fixed_value)
    blobs = []
    for run in range(2):
        mesh = sweep(scene._replace(grid=grid))
        obj = tmp_path / f"m{run}.obj"
        csv = tmp_path / f"m{run}.csv"
        jsn = tmp_path / f"m{run}.json"
        export_obj(mesh, obj)
        export_field(mesh, csv, "csv")
        export_field(mesh, jsn, "json")
        blobs.append((obj.read_bytes(), csv.read_bytes(), jsn.read_bytes()))
    assert blobs[0] == blobs[1]


def test_obj_cells_are_plain_decimal_floats(tmp_path):
    # frames of pseudo/partially null curves go through a numpy nullspace
    # solve; exported numbers must still be plain Python float reprs
    scene = bundled_scene("partially-null-c5-figure")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    4, 4, 2, scene.grid.fixed_axis, scene.grid.fixed_value)
    mesh = sweep(scene._replace(grid=grid))
    path = tmp_path / "c5.obj"
    export_obj(mesh, path)
    for line in path.read_text().splitlines():
        kind, *cells = line.split()
        assert kind in ("v", "f")
        for cell in cells:
            float(cell)  # raises on anything but a plain decimal literal


def test_sweep_counts_and_channels():
    scene = bundled_scene("pseudo-null-c1-figure")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    10, 10, 2, scene.grid.fixed_axis, scene.grid.fixed_value)
    mesh = sweep(scene._replace(grid=grid))
    assert len(mesh.vertices) == 100
    assert len(mesh.quads) == 81
    assert all(len(v) == 3 for v in mesh.vertices)
    assert len(mesh.K) == len(mesh.H) == len(mesh.singular) == 100
    # this figure grid starts at t = 0.2 where some points sit close to the
    # singular locus; curvature is None exactly on the singular flags
    for k, h, sing in zip(_channel(mesh, mesh.K), _channel(mesh, mesh.H),
                          mesh.singular):
        assert (k is None) == (h is None)
        assert (k is None) == sing


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("name", FIGURE_SCENES)
def test_sweep_with_each_fixed_axis(monkeypatch, name, axis):
    # one table stage on the s axis (or the fixed s) by the (t, w) pairs of
    # one row of vertices, and every vertex gets the bits field gives its
    # parameters
    scene = bundled_scene(name)
    lo, hi = scene.grid.range_of(axis)
    grid = scene.grid._replace(n_s=7, n_t=6, n_w=5,
                              fixed_axis=axis, fixed_value=(lo + hi) / 2)
    sizes, real = [], canal.field_tables

    def counted(*args):
        sizes.append(tuple(map(len, args[-3:])))
        return real(*args)

    # through the scene's tables, or canal.field's on the vertices
    monkeypatch.setattr(scene_mod, "field_tables", counted)
    monkeypatch.setattr(canal, "field_tables", counted)
    mesh = sweep(scene._replace(grid=grid))
    n_tw = {"s": 6 * 5, "t": 5, "w": 6}[axis]
    assert sizes == [(1 if axis == "s" else 7, n_tw, n_tw)]
    # the vertices are the broadcast of grid.axes(fixed=True), which is
    # the product of the axes with the fixed one at its value
    s, t, w = grid.axes(fixed=True)
    assert mesh.params.tolist() == np.column_stack(
        [np.repeat(s, len(t)), np.tile(t, len(s)), np.tile(w, len(s))]
    ).tolist()
    assert mesh.params.tolist() == [list(p) for p in itertools.product(
        *([grid.fixed_value] if a == axis else grid.values_of(a)
          for a in AXES))]
    fld = scene.field(*mesh.params.T)
    for column in ("points", "K", "H", "singular"):
        got, want = getattr(mesh, column), getattr(fld, column)
        if want is None:
            assert got is None, column
            continue
        assert (got.dtype, got.shape) == (want.dtype, want.shape), column
        assert got.tobytes() == want.tobytes(), column


def test_relation_recheck_on_sweep():
    scene = bundled_scene("pseudo-null-c1")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    12, 12, 2, "w", 1.0)
    mesh = sweep(scene._replace(grid=grid))
    ok = ~mesh.singular
    r = scene.radius.jet(mesh.params[ok, 0])[0]
    rel = relation_residual(CurvaturePair(mesh.K[ok], mesh.H[ok]), r,
                            scene.family)
    assert len(rel) > 0
    assert np.max(np.abs(rel)) <= 1e-9


def test_field_csv_format(tmp_path):
    scene = bundled_scene("pseudo-null-c1")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    3, 3, 2, "w", 1.2)
    mesh = sweep(scene._replace(grid=grid))
    path = tmp_path / "field.csv"
    export_field(mesh, path, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(FIELD_COLUMNS)
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert len(first) == len(FIELD_COLUMNS)
    assert first[-1] in ("true", "false")


def pole_t1_doc():
    """A pseudo null T1 sweep across the pole D = 2g - r k1 sin f = 0 at
    w = pi/2 (g = t = 1/4, r = 1/2, k1 = 1): those rows keep geometry but
    carry no curvature."""
    return {
        "version": 1,
        "curve": {"builtin": "pseudo-null-example"},
        "family": {"variant": "T1"},
        "radius": "1/2",
        "shape": {"f": "w", "g": "t"},
        "grid": {"s": [0.2, 1.0, 3], "t": [0.25, 0.3, 3],
                 "w": [math.pi / 2 - 0.4, math.pi / 2 + 0.4, 3],
                 "fixed": {"axis": "t", "value": 0.25}},
    }


def test_field_csv_empty_cells_on_singular_rows(tmp_path):
    scene = parse_scene(pole_t1_doc())
    mesh = sweep(scene)
    assert 0 < mesh.n_singular < len(mesh.vertices)
    path = tmp_path / "f.csv"
    export_field(mesh, path, "csv")
    rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
    singular_rows = [r for r in rows if r[-1] == "true"]
    assert singular_rows and all(r[7] == "" and r[8] == "" for r in singular_rows)
    regular_rows = [r for r in rows if r[-1] == "false"]
    assert regular_rows and all(r[7] != "" for r in regular_rows)


def test_field_json_round_trips(tmp_path):
    scene = bundled_scene("pseudo-null-c1")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    3, 3, 2, "w", 1.2)
    mesh = sweep(scene._replace(grid=grid))
    path = tmp_path / "field.json"
    export_field(mesh, path, "json")
    records = json.loads(path.read_text())
    assert len(records) == 9
    assert set(records[0]) == set(FIELD_COLUMNS)


def test_null_scene_mesh_has_geometry_but_no_curvature():
    scene = bundled_scene("null-c1-figure")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    4, 4, 2, scene.grid.fixed_axis, scene.grid.fixed_value)
    mesh = sweep(scene._replace(grid=grid))
    assert mesh.K is None and mesh.H is None
    assert mesh.n_singular == 0


def test_fully_singular_grid_errors():
    # with g = sin(w)/4 a pseudo null T1 sweep sits on the pole
    # D = 2g - r k1 sin f = 0 (r = 1/2, k1 = 1, f = w) everywhere
    doc = {
        "version": 1,
        "curve": {"builtin": "pseudo-null-example"},
        "family": {"variant": "T1"},
        "radius": "1/2",
        "shape": {"f": "w", "g": "sin(w)/4"},
        "grid": {"s": [0.2, 1.0, 3], "t": [0.8, 1.6, 3], "w": [1.0, 1.4, 2],
                 "fixed": {"axis": "w", "value": 1.2}},
    }
    scene = parse_scene(doc)
    with pytest.raises(MeshError):
        sweep(scene)


def test_export_empty_mesh_fails(tmp_path):
    from lmcanal.mesh import ProjectedMesh
    with pytest.raises(MeshError):
        export_obj(ProjectedMesh(), tmp_path / "x.obj")


def test_export_unwritable_path():
    scene = bundled_scene("pseudo-null-c1")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    3, 3, 2, "w", 1.2)
    mesh = sweep(scene._replace(grid=grid))
    with pytest.raises(OSError):
        export_obj(mesh, "/nonexistent-dir/sub/mesh.obj")


@pytest.mark.parametrize("field", ["fig.obj", "./sub/../fig.obj", "link.csv",
                                   "new.obj"])
def test_export_to_one_file_twice_fails_before_opening_it(field, tmp_path,
                                                          monkeypatch):
    # one path for both files would leave the field alone in it; a new
    # path, an existing one, its other spelling and a hard link to it are
    # all refused before anything is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "fig.obj").write_text("old\n")
    os.link(tmp_path / "fig.obj", tmp_path / "link.csv")
    scene = bundled_scene("pseudo-null-c1-figure")
    mesh = sweep(scene._replace(grid=scene.grid._replace(n_s=6, n_t=6)))
    obj = "new.obj" if field == "new.obj" else "fig.obj"
    for fmt in ("csv", "json"):
        with pytest.raises(MeshError, match="same file"):
            export(mesh, obj, field, fmt)
    assert (tmp_path / "fig.obj").read_text() == "old\n"
    assert not (tmp_path / "new.obj").exists()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def export_digests(case, directory) -> list:
    """(run, file, sha256) of every file three ``lmcanal mesh`` calls
    write for one pinned case in ``directory``: the OBJ alone, then the
    OBJ with a CSV and with a JSON field.  Their stdout is dropped."""
    scene = case
    if case == "pole-t1":
        scene = directory / "pole-t1.json"
        scene.write_text(json.dumps(pole_t1_doc()))
    digests = []
    for kind in ("obj", "csv", "json"):
        obj = directory / f"{kind}.obj"
        argv = ["mesh", "--scene", str(scene), "--out", str(obj)]
        if kind != "obj":
            argv += ["--field", str(directory / f"{case}.{kind}"),
                     "--format", kind]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        digests.append((kind, f"{case}.obj", _sha256(obj)))
        if kind != "obj":
            digests.append((kind, f"{case}.{kind}",
                            _sha256(directory / f"{case}.{kind}")))
    return digests


PINNED_CASES = FIGURE_SCENES + ("pole-t1",)


@pytest.mark.parametrize("case", PINNED_CASES)
def test_exports_match_pinned_bytes(case, tmp_path):
    pinned = dict(line.split()[::-1] for line in PINNED.read_text().splitlines())
    for run, name, digest in export_digests(case, tmp_path):
        assert digest == pinned[name], (run, name)


def signed_zero_mesh() -> ProjectedMesh:
    """More than two blocks of rows whose parameter and point columns
    repeat both 0.0 and -0.0, with a few singular rows."""
    n = 2 * EXPORT_BLOCK_ROWS + 7
    i = np.arange(n)
    zeros = np.where(i % 3 == 0, -0.0, 0.0)
    params = np.stack([zeros, np.where(i % 2, 0.1, -0.0), i / 7.0], axis=1)
    points = np.stack([zeros[::-1], i * 0.3, -zeros, np.sqrt(i)], axis=1)
    singular = i % 11 == 5
    return ProjectedMesh(params=params, points=points, K=i * -0.25,
                         H=np.where(i % 4, 0.0, -0.0), singular=singular,
                         quads=[(0, 1, 3, 2)], projection="x1x2x4")


def test_signed_zeros_keep_their_reprs(tmp_path):
    mesh = signed_zero_mesh()
    obj, csv = tmp_path / "one.obj", tmp_path / "one.csv"
    export(mesh, obj, csv)
    rows = [r.split(",") for r in csv.read_text().splitlines()[1:]]
    assert len(rows) == len(mesh.points)
    assert {r[0] for r in rows} == {"0.0", "-0.0"}
    for row, p, x, k, h, sing in zip(rows, mesh.params.tolist(),
                                     mesh.points.tolist(), mesh.K.tolist(),
                                     mesh.H.tolist(), mesh.singular.tolist()):
        assert row[:7] == [repr(v) for v in p + x]
        assert row[7:] == (["", "", "true"] if sing
                           else [repr(k), repr(h), "false"])
    vertices = [line.split()[1:] for line in obj.read_text().splitlines()
                if line.startswith("v ")]
    assert vertices == [[repr(v) for v in row]
                        for row in mesh.vertices.tolist()]
    export_obj(mesh, tmp_path / "two.obj")
    export_field(mesh, tmp_path / "two.csv")
    assert obj.read_bytes() == (tmp_path / "two.obj").read_bytes()
    assert csv.read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_integer_columns_keep_their_reprs(tmp_path):
    # ProjectedMesh is public: columns need not be float64
    mesh = ProjectedMesh(params=np.array([[0, 1, 2], [0, -1, 2]]),
                         points=np.ones((2, 4), dtype=np.float32),
                         K=np.array([0.5, 1.5]), H=np.array([2, 3]),
                         singular=np.array([0, 1]), quads=[])
    path = tmp_path / "int.csv"
    export_field(mesh, path)
    assert path.read_text().splitlines()[1:] == [
        "0,1,2,1.0,1.0,1.0,1.0,0.5,2,false",
        "0,-1,2,1.0,1.0,1.0,1.0,,,true"]


def non_finite_mesh() -> ProjectedMesh:
    """``signed_zero_mesh`` with nan, inf and -inf cells in a parameter,
    a point and a curvature column."""
    mesh = signed_zero_mesh()
    i = np.arange(len(mesh.points))
    special = np.array([np.nan, np.inf, -np.inf, 1.5])[i % 4]
    mesh.params[:, 1] = special
    mesh.points[:, 2] = special[::-1]
    mesh.K = np.where(i % 3, special, -np.inf)
    return mesh


def _json_dump_reference(mesh) -> str:
    """The field as ``json.dump`` writes one dict per vertex."""
    records = [dict(zip(FIELD_COLUMNS, (*p, *x, k, h, sing)))
               for p, x, k, h, sing in zip(
                   mesh.params.tolist(), mesh.points.tolist(),
                   _channel(mesh, mesh.K), _channel(mesh, mesh.H),
                   mesh.singular.tolist())]
    return json.dumps(records, indent=1) + "\n"


FIELD_MESHES = {
    "signed-zeros": signed_zero_mesh(),
    "non-finite": non_finite_mesh(),
    # integer, boolean and float32 columns, no H channel
    "integer-bool-float32": ProjectedMesh(
        params=np.array([[0, 1, 2], [0, -1, 2]]),
        points=np.array([[True, False, True, True]] * 2),
        K=np.array([0.5, np.nan], dtype=np.float32), H=None,
        singular=np.array([0, 1]), quads=[]),
}


@pytest.mark.parametrize("mesh", FIELD_MESHES.values(), ids=FIELD_MESHES)
def test_json_field_matches_json_dump(mesh, tmp_path):
    path = tmp_path / "field.json"
    export_field(mesh, path, "json")
    assert path.read_text() == _json_dump_reference(mesh)


def repeated_channel_mesh() -> ProjectedMesh:
    """More than two blocks of rows whose K and H repeat a few values,
    0.0, -0.0, nan and a value that is also a parameter among them, so
    that one bit pattern spans parameter and channel columns and block
    boundaries, with a few singular rows."""
    n = 2 * EXPORT_BLOCK_ROWS + 7
    i = np.arange(n)
    params = np.stack([i // 5 * 0.25, np.where(i % 2, -0.0, 1.5),
                       i / 3.0], axis=1)
    points = np.stack([np.sin(i), i * 0.5, -np.cos(i), np.sqrt(i)], axis=1)
    repeated = np.array([0.0, -0.0, np.nan, 1.5, -2.75])
    return ProjectedMesh(params=params, points=points, K=repeated[i % 5],
                         H=repeated[(i // 7) % 5], singular=i % 13 == 4,
                         quads=[(0, 1, 3, 2), (2, 3, 5, 4)],
                         projection="x2x3x4")


def _reference_rows(mesh) -> tuple[str, str]:
    """The OBJ and CSV as a per-row writer spells them: ``repr`` of each
    ``tolist`` cell, K and H empty on singular rows and for families
    without the channel."""
    channels = [[None] * len(mesh.points) if c is None else c.tolist()
                for c in (mesh.K, mesh.H)]
    rows = [",".join(FIELD_COLUMNS)]
    for p, x, k, h, sing in zip(mesh.params.tolist(), mesh.points.tolist(),
                                *channels, mesh.singular.tolist()):
        kh = ["", ""] if sing else ["" if v is None else repr(v)
                                    for v in (k, h)]
        rows.append(",".join([repr(v) for v in p + x] + kh
                             + ["true" if sing else "false"]))
    obj = [" ".join(["v"] + [repr(v) for v in row])
           for row in mesh.vertices.tolist()]
    obj += [" ".join(["f"] + [str(v + 1) for v in q]) for q in mesh.quads]
    return "".join(line + "\n" for line in obj), "\n".join(rows) + "\n"


@pytest.mark.parametrize("mesh", [*FIELD_MESHES.values(),
                                  repeated_channel_mesh()],
                         ids=[*FIELD_MESHES, "repeated-channels"])
def test_csv_and_obj_match_reference_rows(mesh, tmp_path):
    obj, csv = tmp_path / "mesh.obj", tmp_path / "field.csv"
    export(mesh, obj, csv)
    assert (obj.read_text(), csv.read_text()) == _reference_rows(mesh)


def _export_peak(mesh, tmp_path, format) -> int:
    """Peak traced allocation of one OBJ+field export."""
    obj, fld = tmp_path / "m.obj", tmp_path / f"m.{format}"
    export(mesh, obj, fld, format)  # first-call allocations excluded
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        export(mesh, obj, fld, format)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("name", ["pseudo-null-c1-figure",
                                  "partially-null-c5-figure"])
def test_export_memory_does_not_grow_with_vertex_count(tmp_path, name,
                                                       format):
    # the writer streams blocks of rows; a whole-file string would make the
    # peak grow fourfold from 40x40 to 80x80 (partially-null-c5-figure's K
    # and H depend on s alone, so they repeat along each block)
    scene = bundled_scene(name)
    small, large = (_export_peak(sweep(scene._replace(
        grid=scene.grid._replace(n_s=n, n_t=n))), tmp_path,
        format) for n in (40, 80))
    assert large <= 1.25 * small


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in PINNED_CASES:
            digests = {}  # each file once, in the order of its first run
            for _, name, digest in export_digests(case, pathlib.Path(tmp)):
                digests.setdefault(name, digest)
            for name, digest in digests.items():
                print(f"{digest}  {name}")
