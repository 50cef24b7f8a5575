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
blocks of ``EXPORT_BLOCK_ROWS`` rows, with one write per block and file.
A point coordinate is formatted once for both the OBJ ``v`` line and the
CSV row; the parameters, K and H once per distinct bit pattern in the
block.  A JSON field has the bytes of ``json.dump(records, indent=1)``
but comes from the C encoder, one block at a time.  No string holds more
than a block, so peak memory does not grow with the vertex count.
``export_obj`` and ``export_field`` write one of the two files through
the same writer.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from typing import NamedTuple

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
    # a width hi - lo that overflows samples nan, a width near the largest
    # float can sample inf
    with np.errstate(all="ignore"):
        values = lo + (hi - lo) * np.arange(n) / (n - 1)
    if not np.all(np.isfinite(values)):
        raise MeshError(f"{axis} range [{lo}, {hi}] is too wide: its samples "
                        f"overflow")
    return values.tolist()


class _GridFields(NamedTuple):
    s_range: tuple[float, float]
    t_range: tuple[float, float]
    w_range: tuple[float, float]
    n_s: int
    n_t: int
    n_w: int
    fixed_axis: str | None
    fixed_value: float | None


class GridSpec(_GridFields):
    """Parameter ranges and counts, plus the fixed-axis selector for sweeps."""

    __slots__ = ()

    def __new__(cls, s_range: tuple[float, float],
                t_range: tuple[float, float], w_range: tuple[float, float],
                n_s: int, n_t: int, n_w: int, fixed_axis: str | None = None,
                fixed_value: float | None = None):
        self = super().__new__(cls, s_range, t_range, w_range, n_s, n_t, n_w,
                               fixed_axis, fixed_value)
        if fixed_axis is not None and fixed_axis not in AXES:
            raise MeshError(f"fixed axis must be one of {AXES}")
        fixed = (fixed_axis, fixed_value)
        if fixed != (None, None) and (None in fixed
                                      or not np.isfinite(fixed_value)):
            raise MeshError(f"a fixed axis needs a finite fixed value and a "
                            f"fixed value an axis, got {fixed}")
        for axis in AXES:
            self.values_of(axis)  # sample_axis checks the range and count
        return self

    @classmethod
    def _make(cls, fields):
        """Build through ``__new__``, so ``_replace`` validates too."""
        return cls(*fields)

    def range_of(self, axis: str) -> tuple[float, float]:
        return {"s": self.s_range, "t": self.t_range, "w": self.w_range}[axis]

    def count_of(self, axis: str) -> int:
        return {"s": self.n_s, "t": self.n_t, "w": self.n_w}[axis]

    def values_of(self, axis: str) -> list[float]:
        return sample_axis(axis, *self.range_of(axis), self.count_of(axis))

    def axes(self, fixed: bool = False) -> tuple[np.ndarray, ...]:
        """The grid's s values and its (t, w) pairs (t[j], w[j]), t slower,
        as 1-D arrays; with ``fixed`` the fixed axis holds its one value."""
        s, t, w = (np.array([self.fixed_value] if fixed
                            and axis == self.fixed_axis
                            else self.values_of(axis), dtype=float)
                   for axis in AXES)
        return s, np.repeat(t, len(w)), np.tile(w, len(t))

    def swept_axes(self) -> tuple[str, str]:
        if self.fixed_axis is None:
            raise MeshError("sweep needs a fixed axis in the grid spec")
        a, b = (axis for axis in AXES if axis != self.fixed_axis)
        return a, b


class ProjectedMesh:
    """Sweep output: parameters, points and closed-form channels per vertex
    (row-major over the two swept axes) and the grid quads.

    ``params`` (N, 3) holds (s, t, w) per vertex and ``points`` (N, 4) the
    hypersurface points; ``K`` and ``H`` (N,) are the closed-form
    curvatures, None for families without closed forms; ``singular`` (N,)
    is True where a closed-form denominator vanishes; ``quads`` are 0-based
    index 4-tuples.  Omitted arrays and lists start empty."""

    __slots__ = ("params", "points", "K", "H", "singular", "quads",
                 "projection")

    def __init__(self, params: np.ndarray | None = None,
                 points: np.ndarray | None = None,
                 K: np.ndarray | None = None, H: np.ndarray | None = None,
                 singular: np.ndarray | None = None,
                 quads: list | None = None, projection: str = "x1x3x4"):
        self.params = np.empty((0, 3)) if params is None else params
        self.points = np.empty((0, 4)) if points is None else points
        self.K, self.H = K, H
        self.singular = np.zeros(0, bool) if singular is None else singular
        self.quads = [] if quads is None else quads
        self.projection = projection

    def __eq__(self, other):
        if other.__class__ is not ProjectedMesh:
            return NotImplemented
        pairs = ((getattr(self, k), getattr(other, k)) for k in self.__slots__)
        return all(np.array_equal(a, b, equal_nan=True)
                   if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in pairs)

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
    returning ``canal.FieldTables`` (see the scene module).  The tables
    hold ``grid.axes(fixed=True)``, the s values and (t, w) pairs with the
    fixed axis at its one value, and the kernel's row stages read them at
    a (len(s), 1) block of s indices by a (1, len(t)) block of pair
    indices, as verify reads its grid rows; the vertices are that block
    raveled, row-major over the two swept axes.  Raises MeshError when the
    grid has no fixed axis or every point is singular.
    """
    if scene.projection not in PROJECTIONS:
        raise MeshError(f"unknown projection {scene.projection!r}")
    grid = scene.grid
    n_a, n_b = (grid.count_of(axis) for axis in grid.swept_axes())
    s, t, w = grid.axes(fixed=True)
    s_ix, tw_ix = np.arange(len(s))[:, None], np.arange(len(t))[None, :]
    tables = scene.tables(s, t, w)
    params = np.stack(np.broadcast_arrays(s[:, None], t, w),
                      axis=-1).reshape(-1, 3)
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


def _reprs(values: np.ndarray) -> list:
    """``repr`` of each value, as the Python scalars of ``tolist``."""
    return list(map(repr, values.tolist()))


def _csv_rows(mesh: ProjectedMesh, lo: int, hi: int, x: list, sing) -> str:
    """CSV rows lo:hi given their point cells ``x``.  The float64 cells of
    s, t, w, K and H are formatted once per distinct bit pattern, keyed on
    bits, not float equality (0.0 == -0.0 but their reprs differ); K and
    H are empty on singular rows and for families without the channel."""
    columns = [*mesh.params[lo:hi].T,
               *(c[lo:hi] for c in (mesh.K, mesh.H) if c is not None)]
    wide = [c for c in columns if c.dtype == np.float64]  # bit key: float64
    if wide:
        table = np.stack(wide)
        bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
        shared = iter(np.array(_reprs(bits.view(np.float64)), dtype=object)[
            inverse.reshape(table.shape)].tolist())
    cells = [next(shared) if c.dtype == np.float64 else _reprs(c)
             for c in columns]
    blank, channels = np.flatnonzero(sing).tolist(), iter(cells[3:])
    for column, i in itertools.product(cells[3:], blank):
        column[i] = ""
    k, h = ([""] * len(sing) if c is None else next(channels)
            for c in (mesh.K, mesh.H))
    flags = np.where(sing, "true", "false").tolist()
    return "\n".join(map(",".join, zip(*cells[:3], *x, k, h, flags))) + "\n"


def _json_records(mesh: ProjectedMesh, lo: int, hi: int, sing) -> str:
    """Rows lo:hi as ``json.dumps(records, indent=1)`` spells the records
    inside its list brackets: the ``tolist`` values, K and H None on
    singular rows and for families without the channel."""
    channels = (np.where(sing, None, c[lo:hi]).tolist() if c is not None
                else [None] * len(sing) for c in (mesh.K, mesh.H))
    rows = zip(*mesh.params[lo:hi].T.tolist(), *mesh.points[lo:hi].T.tolist(),
               *channels, np.asarray(mesh.singular[lo:hi]).tolist())
    records = [dict(zip(FIELD_COLUMNS, row)) for row in rows]
    # the C encoder serves only indent=None; re-indenting its separators is
    # safe: keys are FIELD_COLUMNS names, values numbers, null or booleans
    text = (json.dumps(records)[1:-1].replace('}, {"', '\n },\n {\n  "')
            .replace('{"', ' {\n  "').replace(', "', ',\n  "'))
    return text[:-1] + "\n }"


def _write_blocks(mesh: ProjectedMesh, obj, fld, format: str) -> None:
    """OBJ ``v`` then ``f`` lines to ``obj`` and field rows (CSV rows or
    JSON records) to ``fld`` (either may be None), one write per block and
    file; the OBJ and CSV share each formatted point coordinate."""
    kept = PROJECTIONS[mesh.projection]
    singular = np.asarray(mesh.singular, dtype=bool)
    for lo in range(0, len(mesh.points), EXPORT_BLOCK_ROWS):
        hi = lo + EXPORT_BLOCK_ROWS
        x = [_reprs(col) for col in mesh.points[lo:hi].T]
        if obj is not None:
            obj.write("v " + "\nv ".join(map(" ".join, zip(
                *(x[i] for i in kept)))) + "\n")
        if fld is not None and format == "json":
            fld.write(("[\n" if lo == 0 else ",\n")
                      + _json_records(mesh, lo, hi, singular[lo:hi]))
        elif fld is not None:
            fld.write(_csv_rows(mesh, lo, hi, x, singular[lo:hi]))
    quads = mesh.quads if obj is not None else []
    for i in range(0, len(quads), EXPORT_BLOCK_ROWS):
        obj.write("".join([f"f {a + 1} {b + 1} {c + 1} {d + 1}\n"
                           for a, b, c, d in quads[i:i + EXPORT_BLOCK_ROWS]]))


def _same_file(a, b) -> bool:
    """True when two paths name one file: the same real path, or an
    existing file reached through a hard link."""
    try:
        return (os.path.realpath(a) == os.path.realpath(b)
                or os.path.samefile(a, b))
    except OSError:  # either file does not exist yet
        return False


def export(mesh: ProjectedMesh, obj_path, field_path=None,
           format: str = "csv") -> None:
    """Write the OBJ mesh and, given ``field_path``, the curvature field.

    OBJ and field come from one block-wise pass over the vertices (see
    the module docstring).  Either path may be None; two paths that name
    one file raise MeshError before either is opened.  The field file is
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
    if (obj_path is not None and field_path is not None
            and _same_file(obj_path, field_path)):
        raise MeshError(f"the OBJ and field paths name the same file "
                        f"{obj_path!r}")
    with contextlib.ExitStack() as stack:
        def opened(path):
            return None if path is None else stack.enter_context(
                open(path, "w", encoding="ascii", newline="\n"))
        fld, obj = opened(field_path), opened(obj_path)
        if fld is not None and format == "csv":
            fld.write(",".join(FIELD_COLUMNS) + "\n")
        if obj is not None or fld is not None:
            _write_blocks(mesh, obj, fld, format)
        if fld is not None and format == "json":
            fld.write("\n]\n")


def export_obj(mesh: ProjectedMesh, path) -> None:
    """Wavefront OBJ alone: ``export`` without a field file."""
    export(mesh, path)


def export_field(mesh: ProjectedMesh, path, format: str = "csv") -> None:
    """Per-vertex curvature field alone, as CSV or JSON records:
    ``export`` without an OBJ file."""
    export(mesh, None, path, format)
