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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .canal import CurvaturePair, UnsupportedFamilyError, relation_residual

PROJECTIONS = {
    "x1x2x3": (0, 1, 2),
    "x1x2x4": (0, 1, 3),
    "x1x3x4": (0, 2, 3),
    "x2x3x4": (1, 2, 3),
}

AXES = ("s", "t", "w")


class MeshError(Exception):
    pass


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
        for axis in AXES:
            lo, hi = self.range_of(axis)
            if not lo < hi:
                raise MeshError(f"degenerate {axis} range [{lo}, {hi}]")
            if axis != self.fixed_axis and self.count_of(axis) < 2:
                raise MeshError(f"swept axis {axis} needs at least 2 samples")

    def range_of(self, axis: str) -> tuple[float, float]:
        return {"s": self.s_range, "t": self.t_range, "w": self.w_range}[axis]

    def count_of(self, axis: str) -> int:
        return {"s": self.n_s, "t": self.n_t, "w": self.n_w}[axis]

    def values_of(self, axis: str) -> list[float]:
        lo, hi = self.range_of(axis)
        n = self.count_of(axis)
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

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
    #: worst K-H relation residual over nonsingular vertices (canal variants)
    relation_worst: float = 0.0

    @property
    def vertices(self) -> np.ndarray:
        """(N, 3) points projected onto the kept coordinates."""
        return self.points[:, list(PROJECTIONS[self.projection])]

    def _channel(self, values) -> list:
        if values is None:
            return [None] * len(self.points)
        return np.where(self.singular, None, values).tolist()

    @property
    def k_values(self) -> list:
        """K per vertex: a float, or None on singular vertices and for
        families without closed forms."""
        return self._channel(self.K)

    @property
    def h_values(self) -> list:
        """H per vertex, None like ``k_values``."""
        return self._channel(self.H)

    @property
    def n_singular(self) -> int:
        return int(np.count_nonzero(self.singular))


def sweep(scene, grid: GridSpec) -> ProjectedMesh:
    """Evaluate the scene on the fixed-axis grid and project.

    ``scene`` provides ``projection``, ``family`` and ``field(s, t, w)``
    returning a ``canal.Field`` (see the scene module); every vertex is
    evaluated in that one call.  Raises MeshError when every point is
    singular.
    """
    if scene.projection not in PROJECTIONS:
        raise MeshError(f"unknown projection {scene.projection!r}")
    axis_a, axis_b = grid.swept_axes()
    n_a, n_b = grid.count_of(axis_a), grid.count_of(axis_b)
    a, b = np.meshgrid(grid.values_of(axis_a), grid.values_of(axis_b),
                       indexing="ij")
    coords = {grid.fixed_axis: np.full(a.size, grid.fixed_value),
              axis_a: a.ravel(), axis_b: b.ravel()}
    params = np.stack([coords[axis] for axis in AXES], axis=1)
    fld = scene.field(*params.T)
    mesh = ProjectedMesh(params=params, points=fld.points, K=fld.K, H=fld.H,
                         singular=fld.singular, projection=scene.projection)
    if mesh.n_singular == n_a * n_b:
        raise MeshError("every grid point is singular")
    if fld.K is not None:
        ok = ~fld.singular
        try:
            rel = relation_residual(CurvaturePair(fld.K[ok], fld.H[ok]),
                                    fld.r[ok], scene.family)
            mesh.relation_worst = float(np.fmax.reduce(np.abs(rel),
                                                       initial=0.0))
        except UnsupportedFamilyError:
            pass  # tubular variants: no K-H relation to recheck
    base = (np.arange(n_a - 1)[:, None] * n_b + np.arange(n_b - 1)).ravel()
    mesh.quads = list(zip(base.tolist(), (base + 1).tolist(),
                          (base + n_b + 1).tolist(), (base + n_b).tolist()))
    return mesh


def export_obj(mesh: ProjectedMesh, path) -> None:
    """Wavefront OBJ: `v x y z` lines then 1-based `f i j k l` quads."""
    if not len(mesh.points):
        raise MeshError("cannot export an empty mesh")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for x, y, z in map(np.ndarray.tolist, mesh.vertices):
            fh.write(f"v {x!r} {y!r} {z!r}\n")
        for a, b, c, d in mesh.quads:
            fh.write(f"f {a + 1} {b + 1} {c + 1} {d + 1}\n")


FIELD_COLUMNS = ("s", "t", "w", "x1", "x2", "x3", "x4", "K", "H", "singular")


def _field_records(mesh: ProjectedMesh):
    for (s, t, w), (x1, x2, x3, x4), k, h, sing in zip(
            map(np.ndarray.tolist, mesh.params),
            map(np.ndarray.tolist, mesh.points), mesh.k_values,
            mesh.h_values, mesh.singular.tolist()):
        yield {"s": s, "t": t, "w": w, "x1": x1, "x2": x2, "x3": x3,
               "x4": x4, "K": k, "H": h, "singular": sing}


def export_field(mesh: ProjectedMesh, path, format: str = "csv") -> None:
    """Per-vertex curvature field as CSV or JSON records.

    CSV columns are fixed (see FIELD_COLUMNS); K and H cells are empty on
    singular vertices and on families without closed forms.
    """
    if not len(mesh.points):
        raise MeshError("cannot export an empty mesh")
    if format == "csv":
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(FIELD_COLUMNS) + "\n")
            for rec in _field_records(mesh):
                cells = [repr(rec[c]) for c in FIELD_COLUMNS[:7]]
                cells.append("" if rec["K"] is None else repr(rec["K"]))
                cells.append("" if rec["H"] is None else repr(rec["H"]))
                cells.append("true" if rec["singular"] else "false")
                fh.write(",".join(cells) + "\n")
    elif format == "json":
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(list(_field_records(mesh)), fh, indent=1)
            fh.write("\n")
    else:
        raise MeshError(f"unknown field format {format!r}")
