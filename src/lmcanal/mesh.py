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
blocks of ``EXPORT_BLOCK_ROWS`` (1024) rows, with one write per block and
file.  Each point coordinate a block writes is formatted once: the three
kept coordinates for an OBJ alone, all four for a field, which shares them
with the OBJ ``v`` lines.  Both field formats are spelled from one cell
table per block, in which the parameters, K and H are formatted once per
distinct bit pattern.  A CSV row joins a row of cells; a JSON record fills
a fixed template with them, with nan, inf, -inf, True and False spelled as
``json`` spells them and a missing K or H as null, so a JSON field has the
bytes of ``json.dump(records, indent=1)``.  The quads, an (n, 4)
integer array, become ``f`` lines one block of quads at a time, through
one ``%`` format per block.  No string holds more than a block, so peak
memory does not grow with the vertex count.  ``export_obj`` and
``export_field`` write one of the two files through the same writer.
"""

from __future__ import annotations

import contextlib
import itertools
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
    is True where a closed-form denominator vanishes; ``quads`` (n, 4) is
    the int array of the 0-based corner indices of each grid quad, built
    from any sequence of 4-index rows (``export`` also takes such a
    sequence assigned later).  Omitted arrays start empty."""

    __slots__ = ("params", "points", "K", "H", "singular", "quads",
                 "projection")

    def __init__(self, params: np.ndarray | None = None,
                 points: np.ndarray | None = None,
                 K: np.ndarray | None = None, H: np.ndarray | None = None,
                 singular: np.ndarray | None = None,
                 quads: np.ndarray | None = None,
                 projection: str = "x1x3x4"):
        self.params = np.empty((0, 3)) if params is None else params
        self.points = np.empty((0, 4)) if points is None else points
        self.K, self.H = K, H
        self.singular = np.zeros(0, bool) if singular is None else singular
        self.quads = np.asarray(() if quads is None else quads,
                                dtype=np.int64).reshape(-1, 4)
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
    raveled, row-major over the two swept axes, and ``quads`` the (n, 4)
    int array of each grid cell's corners.  Raises MeshError when the
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
    mesh.quads = np.stack([base, base + 1, base + n_b + 1, base + n_b], axis=1)
    return mesh


#: Rows formatted and written per step of ``export``: peak memory is this
#: many rows of strings, not the whole file.
EXPORT_BLOCK_ROWS = 1024

FIELD_COLUMNS = ("s", "t", "w", "x1", "x2", "x3", "x4", "K", "H", "singular")


def _reprs(values: np.ndarray) -> list:
    """``repr`` of each value, as the Python scalars of ``tolist``."""
    return list(map(repr, values.tolist()))


#: Per field format: the header, the text of one row of cells, the
#: separator between records (also across blocks), the footer, a K or H
#: cell with no value and the ``repr`` cells the format spells otherwise.
#: A JSON record is one of ``json.dump(records, indent=1)``.
_FORMATS = {
    "csv": (",".join(FIELD_COLUMNS) + "\n", ",".join, "\n", "\n", "", {}),
    "json": ("[\n", (" {\n" + ",\n".join(f'  "{c}": %s' for c in FIELD_COLUMNS)
                     + "\n }").__mod__, ",\n", "\n]\n", "null",
             {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
              "True": "true", "False": "false"}),
}


def _field_cells(mesh: ProjectedMesh, lo: int, hi: int, x: list, sing,
                 empty: str, respell: dict) -> list:
    """The cells of rows lo:hi, one list per FIELD_COLUMNS column, given
    their four point columns ``x``.  The float64 cells of s, t, w, K and H
    are formatted once per distinct bit pattern, keyed on bits, not float
    equality (0.0 == -0.0 but their reprs differ); K and H are ``empty``
    on singular rows and for families without the channel.  Only the
    columns holding a non-finite or boolean value are respelled, into new
    lists: ``x`` stays as the OBJ spells it."""
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
    columns[3:3], cells[3:3] = mesh.points[lo:hi].T, x
    if respell:
        cells = [[respell.get(v, v) for v in cell]
                 if c.dtype == bool or not np.isfinite(c).all() else cell
                 for c, cell in zip(columns, cells)]
    blank, channels = np.flatnonzero(sing).tolist(), iter(cells[7:])
    for column, i in itertools.product(cells[7:], blank):
        column[i] = empty
    k, h = ([empty] * len(sing) if c is None else next(channels)
            for c in (mesh.K, mesh.H))
    flags = ["false"] * len(sing)
    for i in blank:
        flags[i] = "true"
    return [*cells[:7], k, h, flags]


def _write_blocks(mesh: ProjectedMesh, obj, fld, format: str) -> None:
    """OBJ ``v`` then ``f`` lines to ``obj`` and the field, CSV rows or
    JSON records spelled from one cell table, to ``fld`` (either may be
    None), one write per block and file.  The point columns are formatted
    once: the kept three for an OBJ alone, all four for a field, which
    shares them with the OBJ."""
    header, record, sep, footer, empty, respell = _FORMATS[format]
    kept = PROJECTIONS[mesh.projection]
    columns = kept if fld is None else range(4)
    singular = np.asarray(mesh.singular, dtype=bool)
    for lo in range(0, len(mesh.points), EXPORT_BLOCK_ROWS):
        hi = lo + EXPORT_BLOCK_ROWS
        x = {i: _reprs(mesh.points[lo:hi, i]) for i in columns}
        if obj is not None:
            obj.write("v " + "\nv ".join(map(" ".join, zip(
                *(x[i] for i in kept)))) + "\n")
        if fld is not None:  # unnamed, the cells go before the next block
            fld.write((sep if lo else header) + sep.join(map(record, zip(
                *_field_cells(mesh, lo, hi, list(x.values()),
                              singular[lo:hi], empty, respell)))))
    if fld is not None:
        fld.write(footer)
    if obj is None:
        return
    quads = np.asarray(mesh.quads, dtype=np.int64).reshape(-1, 4)
    for i in range(0, len(quads), EXPORT_BLOCK_ROWS):
        block = quads[i:i + EXPORT_BLOCK_ROWS] + 1
        obj.write(("f %d %d %d %d\n" * len(block))
                  % tuple(block.ravel().tolist()))


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
    the module docstring).  Either path may be None.  An unknown field
    format or projection, and two paths that name one file, raise
    MeshError before either file is opened.  The field file is opened
    first, so an unwritable field path fails before the OBJ is touched.

    OBJ: `v x y z` lines then 1-based `f i j k l` quads; ``mesh.quads``
    may be an (n, 4) integer array or any sequence of 4-index rows.  CSV
    columns and JSON keys are fixed (see FIELD_COLUMNS); K and H cells are
    empty (CSV) or null (JSON) on singular vertices and on families
    without closed forms, and the singular flag is true or false.  The
    files are ASCII, written through the UTF-8 codec: the same bytes, and
    unlike ``ascii`` a codec that needs no import on first use.
    """
    if not len(mesh.points):
        raise MeshError("cannot export an empty mesh")
    if format not in _FORMATS:
        raise MeshError(f"unknown field format {format!r}")
    if mesh.projection not in PROJECTIONS:
        raise MeshError(f"unknown projection {mesh.projection!r}")
    if (obj_path is not None and field_path is not None
            and _same_file(obj_path, field_path)):
        raise MeshError(f"the OBJ and field paths name the same file "
                        f"{obj_path!r}")
    with contextlib.ExitStack() as stack:
        def opened(path):
            return None if path is None else stack.enter_context(
                open(path, "w", encoding="utf-8", newline="\n"))
        fld, obj = opened(field_path), opened(obj_path)
        if obj is not None or fld is not None:
            _write_blocks(mesh, obj, fld, format)


def export_obj(mesh: ProjectedMesh, path) -> None:
    """Wavefront OBJ alone: ``export`` without a field file."""
    export(mesh, path)


def export_field(mesh: ProjectedMesh, path, format: str = "csv") -> None:
    """Per-vertex curvature field alone, as CSV or JSON records:
    ``export`` without an OBJ file."""
    export(mesh, None, path, format)
