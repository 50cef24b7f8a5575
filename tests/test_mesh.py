"""Grid sweeps, projection, OBJ/field export and their determinism."""

import json
import math

import numpy as np
import pytest

from lmcanal.canal import Field
from lmcanal.mesh import (FIELD_COLUMNS, GridSpec, MeshError, export_field,
                          export_obj, sweep)
from lmcanal.scene import bundled_scene, parse_scene


class UnitSquareScene:
    """Minimal scene stand-in: a flat unit patch, no curvature channel."""

    projection = "x2x3x4"

    def field(self, s, t, w):
        zero = np.zeros_like(s)
        return Field(points=np.stack([zero, s, t, zero], axis=1),
                     center=np.zeros((len(s), 4)), r=np.ones_like(s),
                     K=None, H=None, singular=np.zeros(len(s), dtype=bool))


def unit_grid():
    return GridSpec(s_range=(0.0, 1.0), t_range=(0.0, 1.0),
                    w_range=(0.0, 1.0), n_s=2, n_t=2, n_w=2,
                    fixed_axis="w", fixed_value=0.0)


def test_grid_validation():
    with pytest.raises(MeshError):
        GridSpec((0, 1), (0, 1), (0, 1), 1, 2, 2, "w", 0.0)  # n_s = 1
    with pytest.raises(MeshError):
        GridSpec((1, 1), (0, 1), (0, 1), 2, 2, 2, "w", 0.0)  # empty range
    with pytest.raises(MeshError):
        GridSpec((0, 1), (0, 1), (0, 1), 2, 2, 2, "q", 0.0)  # bad axis


def test_obj_contract_2x2(tmp_path):
    mesh = sweep(UnitSquareScene(), unit_grid())
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
        mesh = sweep(scene, grid)
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
    mesh = sweep(scene, grid)
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
    mesh = sweep(scene, grid)
    assert len(mesh.vertices) == 100
    assert len(mesh.quads) == 81
    assert all(len(v) == 3 for v in mesh.vertices)
    assert len(mesh.k_values) == 100
    # this figure grid starts at t = 0.2 where some points sit close to the
    # singular locus; curvature is None exactly on the singular flags
    for k, h, sing in zip(mesh.k_values, mesh.h_values, mesh.singular):
        assert (k is None) == (h is None)
        assert (k is None) == sing


def test_relation_recheck_on_sweep():
    scene = bundled_scene("pseudo-null-c1")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    12, 12, 2, "w", 1.0)
    mesh = sweep(scene, grid)
    assert mesh.relation_worst <= 1e-9


def test_field_csv_format(tmp_path):
    scene = bundled_scene("pseudo-null-c1")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    3, 3, 2, "w", 1.2)
    mesh = sweep(scene, grid)
    path = tmp_path / "field.csv"
    export_field(mesh, path, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(FIELD_COLUMNS)
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert len(first) == len(FIELD_COLUMNS)
    assert first[-1] in ("true", "false")


def test_field_csv_empty_cells_on_singular_rows(tmp_path):
    # sweep across the sin f = 0 pole at w = pi: those rows keep geometry
    # but carry no curvature
    doc = {
        "version": 1,
        "curve": {"builtin": "pseudo-null-example"},
        "family": {"variant": "T1"},
        "radius": "1/2",
        "shape": {"f": "w", "g": "t"},
        "grid": {"s": [0.2, 1.0, 3], "t": [0.9, 0.95, 3],
                 "w": [math.pi - 0.4, math.pi + 0.4, 3],
                 "fixed": {"axis": "t", "value": 0.9}},
    }
    scene = parse_scene(doc)
    mesh = sweep(scene, scene.grid)
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
    mesh = sweep(scene, grid)
    path = tmp_path / "field.json"
    export_field(mesh, path, "json")
    records = json.loads(path.read_text())
    assert len(records) == 9
    assert set(records[0]) == set(FIELD_COLUMNS)


def test_null_scene_mesh_has_geometry_but_no_curvature():
    scene = bundled_scene("null-c1-figure")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    4, 4, 2, scene.grid.fixed_axis, scene.grid.fixed_value)
    mesh = sweep(scene, grid)
    assert all(k is None for k in mesh.k_values)
    assert mesh.n_singular == 0


def test_fully_singular_grid_errors():
    # a pseudo null T1 sweep pinned at w = pi sits on the csc pole everywhere
    doc = {
        "version": 1,
        "curve": {"builtin": "pseudo-null-example"},
        "family": {"variant": "T1"},
        "radius": "1/2",
        "shape": {"f": "w", "g": "t"},
        "grid": {"s": [0.2, 1.0, 3], "t": [0.8, 1.6, 3], "w": [3.0, 3.3, 2],
                 "fixed": {"axis": "w", "value": math.pi}},
    }
    scene = parse_scene(doc)
    with pytest.raises(MeshError):
        sweep(scene, scene.grid)


def test_export_empty_mesh_fails(tmp_path):
    from lmcanal.mesh import ProjectedMesh
    with pytest.raises(MeshError):
        export_obj(ProjectedMesh(), tmp_path / "x.obj")


def test_export_unwritable_path():
    scene = bundled_scene("pseudo-null-c1")
    grid = GridSpec(scene.grid.s_range, scene.grid.t_range, scene.grid.w_range,
                    3, 3, 2, "w", 1.2)
    mesh = sweep(scene, grid)
    with pytest.raises(OSError):
        export_obj(mesh, "/nonexistent-dir/sub/mesh.obj")
