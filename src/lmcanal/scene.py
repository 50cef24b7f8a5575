"""Scene files: the JSON document binding a curve, family, radius, shape
functions and grid into one runnable configuration.

Schema (version 1):

    {
      "version": 1,
      "name": "pseudo-null-c1",
      "curve": {"builtin": "pseudo-null-example"}
             | {"class": "pseudo-null" | "partially-null" | "null",
                "components": [expr, expr, expr, expr],
                "completion_frame": [[4 floats] x 4]          # optional
               },
      "family": {"variant": "C1".."C5" | "T1".."T4"
                           | "NullC1" | "NullC2" | "NullT1",
                 "branch": 1 | -1},                           # 1 if null
      "radius": expr-in-s,
      "shape": {"f": expr-in-t-w, "g": expr-in-t-w},          # non-null only
      "null_coefficients": {"a1": expr, "theta": expr},       # null only
      "grid": {"s": [lo, hi, n], "t": [lo, hi, n], "w": [lo, hi, n],
               "fixed": {"axis": "s"|"t"|"w", "value": number}},  # optional
      "projection": "x1x2x3" | "x1x2x4" | "x1x3x4" | "x2x3x4",
      "oracle_step": number                                    # optional
    }

``oracle_step`` (default ``oracle.DEFAULT_STEP``) is the step of the
oracle's central differences, and the one place that sets it.

Expressions use the grammar documented in the expr module.  Scenes for all
constructible families ship as package data; ``bundled_scene`` loads them
by name.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources

from . import expr
from .canal import (CanalFamily, CurvaturePair, Field, FieldTables,
                    NullCoefficients, RadiusSpec, ShapeSpec, Variant,
                    curvature_closed, field, field_tables)
from .curves import CurveClass, CurveError, CurveSpec, builtin, derive_frame
from .mesh import AXES, PROJECTIONS, GridSpec, MeshError
from .oracle import DEFAULT_STEP


class SceneError(Exception):
    """Schema violation; ``path`` points at the offending field."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class SceneSpec:
    """A fully validated scene."""

    name: str
    curve: CurveSpec
    family: CanalFamily
    radius: RadiusSpec
    shape: ShapeSpec | None
    nc: NullCoefficients | None
    grid: GridSpec
    projection: str
    oracle_step: float

    def field(self, s, t, w) -> Field:
        """The scene's family at the parameter arrays (see canal.field)."""
        return field(self.family, self.curve, self.radius, self.shape,
                     self.nc, s, t, w)

    def tables(self, s, t, w) -> FieldTables:
        """The table stage of ``field`` at the s values and the (t, w)
        pairs (t[j], w[j]) (see canal.field_tables)."""
        return field_tables(self.family, self.curve, self.radius, self.shape,
                            self.nc, s, t, w)

    def closed_pair(self, s: float, t: float, w: float) -> CurvaturePair:
        fr = derive_frame(self.curve, s)
        f, g = self.shape.values(t, w) if self.shape is not None else (0.0, 1.0)
        return curvature_closed(self.family, fr.k1, self.radius.jet(s), f, g)


def _expect(cond: bool, message: str, path: str):
    if not cond:
        raise SceneError(message, path)


def _number(x, path: str, integral: bool = False):
    """A JSON number as a float, or as an int when ``integral``; booleans,
    strings, nulls, non-finite and (for counts) fractional values are
    schema errors."""
    _expect(isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max,
            f"expected a finite number, got {x!r}", path)
    if not integral:
        return float(x)
    _expect(float(x).is_integer(), f"expected an integer, got {x!r}", path)
    return int(x)


#: Longest prefix of an expression text that a schema error quotes.
QUOTE_CHARS = 60


def _parse_expr(text, path: str, allowed: tuple = expr.VARIABLES):
    _expect(isinstance(text, str), "expected an expression string", path)
    try:
        e = expr.parse(text)
    except expr.ParseError as err:
        quoted = repr(text[:QUOTE_CHARS]) + "…" * (len(text) > QUOTE_CHARS)
        raise SceneError(f"bad expression {quoted}: {err}", path) from err
    _expect(expr.variables(e) <= set(allowed),
            f"expression may use only {', '.join(allowed)}", path)
    return e


def _parse_curve(node, path: str) -> CurveSpec:
    _expect(isinstance(node, dict), "expected an object", path)
    if "builtin" in node:
        name = node["builtin"]
        _expect(isinstance(name, str), "builtin name must be a string",
                f"{path}.builtin")
        try:
            return builtin(name)
        except CurveError as e:
            raise SceneError(str(e), f"{path}.builtin") from e
    _expect("class" in node and "components" in node,
            "curve needs either 'builtin' or 'class' + 'components'", path)
    try:
        cls = CurveClass(node["class"])
    except ValueError:
        raise SceneError(f"unknown curve class {node['class']!r}",
                         f"{path}.class") from None
    comps = node["components"]
    _expect(isinstance(comps, list) and len(comps) == 4,
            "components must be a list of 4 expressions", f"{path}.components")
    components = tuple(_parse_expr(c, f"{path}.components[{i}]", ("s",))
                       for i, c in enumerate(comps))
    completion = None
    if "completion_frame" in node:
        cf = node["completion_frame"]
        _expect(isinstance(cf, list) and len(cf) == 4
                and all(isinstance(row, list) and len(row) == 4 for row in cf),
                "completion_frame must be 4 rows of 4 numbers",
                f"{path}.completion_frame")
        completion = tuple(
            tuple(_number(x, f"{path}.completion_frame[{i}][{j}]")
                  for j, x in enumerate(row))
            for i, row in enumerate(cf))
    return CurveSpec(components=components, curve_class=cls,
                     completion_frame=completion)


def _parse_family(node, curve_class: CurveClass, path: str) -> CanalFamily:
    _expect(isinstance(node, dict) and "variant" in node,
            "family needs a 'variant'", path)
    try:
        variant = Variant(node["variant"])
    except ValueError:
        raise SceneError(f"unknown variant {node['variant']!r}",
                         f"{path}.variant") from None
    branch = _number(node.get("branch", 1), f"{path}.branch", integral=True)
    _expect(branch in (1, -1), "branch must be 1 or -1", f"{path}.branch")
    try:  # the variant against the class first, then the branch
        CanalFamily(curve_class, variant)
    except ValueError as e:
        raise SceneError(str(e), path) from e
    try:
        return CanalFamily(curve_class, variant, branch)
    except ValueError as e:
        raise SceneError(str(e), f"{path}.branch") from e


def _parse_grid(node, path: str) -> GridSpec:
    _expect(isinstance(node, dict), "expected an object", path)
    ranges = {}
    counts = {}
    for axis in AXES:
        _expect(axis in node, f"grid needs axis {axis!r}", path)
        spec = node[axis]
        _expect(isinstance(spec, list) and len(spec) == 3,
                "axis spec must be [lo, hi, count]", f"{path}.{axis}")
        lo, hi, n = spec
        ranges[axis] = (_number(lo, f"{path}.{axis}"),
                        _number(hi, f"{path}.{axis}"))
        counts[axis] = _number(n, f"{path}.{axis}", integral=True)
    fixed_axis = fixed_value = None
    if "fixed" in node:
        fx = node["fixed"]
        _expect(isinstance(fx, dict) and "axis" in fx and "value" in fx,
                "fixed selector needs 'axis' and 'value'", f"{path}.fixed")
        fixed_axis = fx["axis"]
        _expect(fixed_axis in AXES, f"fixed axis must be one of {AXES}",
                f"{path}.fixed.axis")
        fixed_value = _number(fx["value"], f"{path}.fixed.value")
    try:
        return GridSpec(s_range=ranges["s"], t_range=ranges["t"],
                        w_range=ranges["w"], n_s=counts["s"],
                        n_t=counts["t"], n_w=counts["w"],
                        fixed_axis=fixed_axis, fixed_value=fixed_value)
    except MeshError as e:
        raise SceneError(str(e), path) from e


def parse_scene(doc: dict, name: str = "<scene>") -> SceneSpec:
    """Validate a scene document; errors carry the offending field path."""
    _expect(isinstance(doc, dict), "scene must be a JSON object", "$")
    _expect(doc.get("version") == 1, "unsupported or missing schema version",
            "$.version")
    name = doc.get("name", name)
    _expect(isinstance(name, str), f"expected a string, got {name!r}",
            "$.name")
    for key in ("curve", "family", "radius", "grid"):
        _expect(key in doc, f"missing required field {key!r}", f"$.{key}")
    curve = _parse_curve(doc["curve"], "$.curve")
    family = _parse_family(doc["family"], curve.curve_class, "$.family")
    radius = RadiusSpec(_parse_expr(doc["radius"], "$.radius", ("s",)))

    shape = nc = None
    if family.variant.is_null_variant:
        _expect("null_coefficients" in doc,
                "null-center families need 'null_coefficients'",
                "$.null_coefficients")
        node = doc["null_coefficients"]
        _expect(isinstance(node, dict) and "a1" in node and "theta" in node,
                "needs 'a1' and 'theta'", "$.null_coefficients")
        nc = NullCoefficients(
            _parse_expr(node["a1"], "$.null_coefficients.a1"),
            _parse_expr(node["theta"], "$.null_coefficients.theta"))
    else:
        _expect("shape" in doc, "non-null families need 'shape'", "$.shape")
        node = doc["shape"]
        _expect(isinstance(node, dict) and "f" in node and "g" in node,
                "needs 'f' and 'g'", "$.shape")
        shape = ShapeSpec(_parse_expr(node["f"], "$.shape.f", ("t", "w")),
                          _parse_expr(node["g"], "$.shape.g", ("t", "w")))

    grid = _parse_grid(doc["grid"], "$.grid")
    projection = doc.get("projection", "x1x3x4")
    _expect(isinstance(projection, str) and projection in PROJECTIONS,
            f"projection must be one of {sorted(PROJECTIONS)}", "$.projection")
    step = _number(doc.get("oracle_step", DEFAULT_STEP), "$.oracle_step")
    _expect(step > 0, "oracle_step must be positive", "$.oracle_step")
    return SceneSpec(name=name, curve=curve, family=family,
                     radius=radius, shape=shape, nc=nc, grid=grid,
                     projection=projection, oracle_step=step)


def load_scene_file(path) -> SceneSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise SceneError(f"not valid JSON: {e}", "$") from e
    except (OSError, UnicodeDecodeError, RecursionError) as e:
        raise SceneError(f"cannot read scene file: {e}", "$") from e
    return parse_scene(doc, name=str(path))


def bundled_scene_names() -> list[str]:
    pkg = resources.files(__package__) / "scenes"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def bundled_scene(name: str) -> SceneSpec:
    pkg = resources.files(__package__) / "scenes" / f"{name}.json"
    if not pkg.is_file():
        raise SceneError(
            f"no bundled scene {name!r}; known: {bundled_scene_names()}", "$")
    return parse_scene(json.loads(pkg.read_text(encoding="utf-8")), name=name)


def resolve_scene(name_or_path: str) -> SceneSpec:
    """Load a scene from a file path, or fall back to a bundled name."""
    import os
    if os.path.exists(name_or_path):
        return load_scene_file(name_or_path)
    return bundled_scene(name_or_path)
