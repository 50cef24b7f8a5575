"""Grid sampling, coordinate projection and mesh/field export.

A sweep fixes one of the parameters (s, t, w), samples the other two on a
rectangular grid, evaluates the hypersurface points, drops one ambient
coordinate (orthogonal projection onto one of the four 3-coordinate
subspaces) and attaches closed-form curvature channels where the family
defines them.  Points where a closed-form denominator vanishes stay in the
mesh with the singular flag set and no curvature values.

Exports are deterministic: floats are written with ``repr`` (shortest
round-trip form), vertices in row-major order over (first swept axis,
second swept axis), quads as 1-based index quadruples following grid
adjacency.

``export`` writes the OBJ and the field in one pass over the vertices, in
blocks of ``EXPORT_BLOCK_ROWS`` rows, and formats each exported value once:
a point coordinate is formatted once for both the OBJ ``v`` line and the
field row, a parameter once per distinct bit pattern in the block, K and H
only on non-singular rows.  JSON records are built from the same cells,
in the layout and spelling of ``json.dump(records, indent=1)``.  No string
holds more than a block, so peak memory does not grow with the vertex
count.  ``export_obj`` and ``export_field`` write one of the two files
through the same writer.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .canal import field_points, field_rows

PROJECTIONS = {
    "x1x2x3": (0, 1, 2),
    "x1x2x4": (0, 1, 3),
    "x1x3x4": (0, 2, 3),
    "x2x3x4": (1, 2, 3),
}

AXES = ("s", "t", "w")


class MeshError(Exception):
    pass


def sample_axis(axis: str, lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced samples from ``lo`` to ``hi``, both included.
    Raises MeshError unless lo < hi, n >= 2 and every sample is finite."""
    if not lo < hi:
        raise MeshError(f"degenerate {axis} range [{lo}, {hi}]")
    if n < 2:
        raise MeshError(f"axis {axis} needs at least 2 samples")
    values = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    # a width hi - lo that overflows samples nan, a width near the largest
    # float can sample inf
    if not np.all(np.isfinite(values)):
        raise MeshError(f"{axis} range [{lo}, {hi}] is too wide: its samples "
                        f"overflow")
    return values


@dataclass(frozen=True)
class GridSpec:
    """Parameter ranges and counts, plus the fixed-axis selector for sweeps."""

    s_range: tuple[float, float]
    t_range: tuple[float, float]
    w_range: tuple[float, float]
    n_s: int
    n_t: int
    n_w: int
    fixed_axis: str | None = None
    fixed_value: float | None = None

    def __post_init__(self):
        if self.fixed_axis is not None and self.fixed_axis not in AXES:
            raise MeshError(f"fixed axis must be one of {AXES}")
        fixed = (self.fixed_axis, self.fixed_value)
        if fixed != (None, None) and (None in fixed
                                      or not np.isfinite(self.fixed_value)):
            raise MeshError(f"a fixed axis needs a finite fixed value and a "
                            f"fixed value an axis, got {fixed}")
        for axis in AXES:
            self.values_of(axis)  # sample_axis checks the range and count

    def range_of(self, axis: str) -> tuple[float, float]:
        return {"s": self.s_range, "t": self.t_range, "w": self.w_range}[axis]

    def count_of(self, axis: str) -> int:
        return {"s": self.n_s, "t": self.n_t, "w": self.n_w}[axis]

    def values_of(self, axis: str) -> list[float]:
        return sample_axis(axis, *self.range_of(axis), self.count_of(axis))

    def swept_axes(self) -> tuple[str, str]:
        if self.fixed_axis is None:
            raise MeshError("sweep needs a fixed axis in the grid spec")
        a, b = (axis for axis in AXES if axis != self.fixed_axis)
        return a, b


@dataclass
class ProjectedMesh:
    """Sweep output: parameters, points and closed-form channels per vertex
    (row-major over the two swept axes) and the grid quads."""

    #: (N, 3) parameters (s, t, w) per vertex
    params: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    #: (N, 4) hypersurface points
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    #: (N,) closed-form curvatures; None for families without closed forms
    K: np.ndarray | None = None
    H: np.ndarray | None = None
    #: (N,) True where a closed-form denominator vanishes
    singular: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))
    quads: list = field(default_factory=list)          # 0-based index 4-tuples
    projection: str = "x1x3x4"

    @property
    def vertices(self) -> np.ndarray:
        """(N, 3) points projected onto the kept coordinates."""
        return self.points[:, list(PROJECTIONS[self.projection])]

    @property
    def n_singular(self) -> int:
        return int(np.count_nonzero(self.singular))


def sweep(scene) -> ProjectedMesh:
    """Evaluate the scene on its grid, which needs a fixed axis, and project.

    ``scene`` provides ``grid``, ``projection`` and ``tables(s, t, w)``
    returning ``canal.FieldTables`` (see the scene module).  With s swept,
    the tables hold the n_a or n_b s values and the (t, w) pairs of one row
    of vertices, and the kernel's row stages read them at an (n_a, 1) block
    of s indices by a (1, n_b) block of pair indices; with s fixed, they
    hold the one s and all n_a n_b pairs, read at (n_a, 1) zeros by the
    (n_a, n_b) pair indices.  Raises MeshError when the grid has no fixed
    axis or every point is singular.
    """
    if scene.projection not in PROJECTIONS:
        raise MeshError(f"unknown projection {scene.projection!r}")
    grid = scene.grid
    axis_a, axis_b = grid.swept_axes()
    n_a, n_b = grid.count_of(axis_a), grid.count_of(axis_b)
    a, b = np.meshgrid(grid.values_of(axis_a), grid.values_of(axis_b),
                       indexing="ij")
    coords = {grid.fixed_axis: np.full(a.size, grid.fixed_value),
              axis_a: a.ravel(), axis_b: b.ravel()}
    params = np.stack([coords[axis] for axis in AXES], axis=1)
    # s is the slower swept axis unless it is fixed
    if grid.fixed_axis == "s":
        s_ix = np.zeros((n_a, 1), dtype=int)
        tw_ix = np.arange(a.size).reshape(n_a, n_b)
    else:
        s_ix, tw_ix = np.arange(n_a)[:, None], np.arange(n_b)[None, :]
    n_tw = tw_ix.size
    tables = scene.tables(params[::n_tw, 0], params[:n_tw, 1],
                          params[:n_tw, 2])
    points = field_points(tables, s_ix, tw_ix).reshape(-1, 4)
    K, H, singular = (None if x is None else x.ravel()
                      for x in field_rows(tables, s_ix, tw_ix)[2:])
    mesh = ProjectedMesh(params=params, points=points, K=K, H=H,
                         singular=singular, projection=scene.projection)
    if mesh.n_singular == n_a * n_b:
        raise MeshError("every grid point is singular")
    base = (np.arange(n_a - 1)[:, None] * n_b + np.arange(n_b - 1)).ravel()
    mesh.quads = list(zip(base.tolist(), (base + 1).tolist(),
                          (base + n_b + 1).tolist(), (base + n_b).tolist()))
    return mesh


#: Rows formatted and written per step of ``export``: peak memory is this
#: many rows of strings, not the whole file.
EXPORT_BLOCK_ROWS = 256

FIELD_COLUMNS = ("s", "t", "w", "x1", "x2", "x3", "x4", "K", "H", "singular")
_CSV_ROW = ",".join(["{}"] * len(FIELD_COLUMNS)) + "\n"
#: One field record as ``json.dump(..., indent=1)`` lays it out in a list.
_JSON_RECORD = (" {{\n" + ",\n".join(f'  "{c}": {{}}' for c in FIELD_COLUMNS)
                + "\n }}")
#: json's spelling of the field cells it spells otherwise: non-finite
#: floats, booleans and the empty K and H cells of singular rows.
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
               "True": "true", "False": "false", "": "null"}


def _reprs(values: np.ndarray) -> list:
    """``repr`` of each value, as the Python scalars of ``tolist``."""
    return list(map(repr, values.tolist()))


def _dedup_reprs(values: np.ndarray) -> list:
    """``_reprs`` formatting each distinct bit pattern once.  Keyed on bits,
    not float equality: 0.0 == -0.0 but their reprs differ."""
    if values.dtype != np.float64:  # the bit key is for float64 only
        return _reprs(values)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(_reprs(bits.view(np.float64)), dtype=object)[
        inverse].tolist()


def _json_cells(cells: list, values=None) -> list:
    """Field cells as json spells them.  ``values``, where given, are what
    the cells are the ``repr`` of: finite floats and integers keep their
    cells."""
    if values is not None and (values.dtype.kind in "iu" or (
            values.dtype.kind == "f" and np.isfinite(values).all())):
        return cells
    return [_JSON_WORDS.get(c, c) for c in cells]


def _channel_cells(values, singular: np.ndarray) -> list:
    """Field cells of a curvature channel: ``repr`` on non-singular rows,
    empty on singular rows and for families without the channel."""
    if values is None:
        return [""] * len(singular)
    cells = np.full(len(singular), "", dtype=object)
    cells[~singular] = _reprs(values[~singular])
    return cells.tolist()


def _write_vertices(mesh: ProjectedMesh, obj, fld, format: str) -> None:
    """OBJ ``v`` lines to ``obj`` and field rows (CSV rows or JSON records)
    to ``fld`` (either may be None), block by block; each exported float is
    formatted once."""
    kept = PROJECTIONS[mesh.projection]
    singular = np.asarray(mesh.singular, dtype=bool)
    for lo in range(0, len(mesh.points), EXPORT_BLOCK_ROWS):
        hi = lo + EXPORT_BLOCK_ROWS
        points = mesh.points[lo:hi].T
        x = [_reprs(col) for col in points]
        if obj is not None:
            obj.writelines(map("v {} {} {}\n".format, *(x[i] for i in kept)))
        if fld is None:
            continue
        sing = singular[lo:hi]
        params = mesh.params[lo:hi].T
        cells = [_dedup_reprs(col) for col in params] + x
        channels = [_channel_cells(None if c is None else c[lo:hi], sing)
                    for c in (mesh.K, mesh.H)]
        if format == "csv":
            fld.writelines(map(_CSV_ROW.format, *cells, *channels,
                               np.where(sing, "true", "false").tolist()))
            continue
        raw = np.asarray(mesh.singular[lo:hi])
        record = [*map(_json_cells, cells, (*params, *points)),
                  *map(_json_cells, channels), _json_cells(_reprs(raw), raw)]
        fld.write(("[\n" if lo == 0 else ",\n")
                  + ",\n".join(map(_JSON_RECORD.format, *record)))


def export(mesh: ProjectedMesh, obj_path, field_path=None,
           format: str = "csv") -> None:
    """Write the OBJ mesh and, given ``field_path``, the curvature field.

    OBJ and field come from one block-wise pass over the vertices (see
    the module docstring).  Either path may be None.  The field file is
    opened first, so an unwritable field path fails before the OBJ is
    touched.

    OBJ: `v x y z` lines then 1-based `f i j k l` quads.  CSV columns are
    fixed (see FIELD_COLUMNS); K and H cells are empty on singular
    vertices and on families without closed forms.
    """
    if not len(mesh.points):
        raise MeshError("cannot export an empty mesh")
    if format not in ("csv", "json"):
        raise MeshError(f"unknown field format {format!r}")
    with contextlib.ExitStack() as stack:
        def opened(path):
            return None if path is None else stack.enter_context(
                open(path, "w", encoding="ascii", newline="\n"))
        fld = opened(field_path)
        obj = opened(obj_path)
        if fld is not None and format == "csv":
            fld.write(",".join(FIELD_COLUMNS) + "\n")
        if obj is not None or fld is not None:
            _write_vertices(mesh, obj, fld, format)
        if obj is not None:
            obj.writelines(f"f {a + 1} {b + 1} {c + 1} {d + 1}\n"
                           for a, b, c, d in mesh.quads)
        if fld is not None and format == "json":
            fld.write("\n]\n")


def export_obj(mesh: ProjectedMesh, path) -> None:
    """Wavefront OBJ alone: ``export`` without a field file."""
    export(mesh, path)


def export_field(mesh: ProjectedMesh, path, format: str = "csv") -> None:
    """Per-vertex curvature field alone, as CSV or JSON records:
    ``export`` without an OBJ file."""
    export(mesh, None, path, format)
