"""The program's records: frozen ones refuse assignment, validated ones
refuse bad arguments with the messages below (directly and through
``_replace``), and equality is by value, by node type and fields for
expression trees and by field for curves (see test_curves.py)."""

import itertools
import math

import pytest

from lmcanal import expr as ex
from lmcanal.canal import CanalFamily, Variant
from lmcanal.curves import CurveClass, builtin
from lmcanal.mesh import GridSpec, MeshError, ProjectedMesh, sweep
from lmcanal.scene import bundled_scene
from lmcanal.verify import VerifyReport, verify_scene

PN, NULL = CurveClass.PSEUDO_NULL, CurveClass.NULL
GRID = dict(s_range=(0.0, 1.0), t_range=(0.0, 1.0), w_range=(0.0, 1.0),
            n_s=2, n_t=2, n_w=2)


@pytest.mark.parametrize("make, field", [
    (lambda: bundled_scene("pseudo-null-c1"), "grid"),
    (lambda: GridSpec(**GRID), "n_s"),
    (lambda: CanalFamily(PN, Variant.C1), "branch"),
    (lambda: ex.Jet((1.0, 2.0)), "c"),
    (lambda: builtin("null-example"), "name"),
], ids=["SceneSpec", "GridSpec", "CanalFamily", "Jet", "CurveSpec"])
def test_frozen_records_refuse_assignment(make, field):
    record = make()
    value = getattr(record, field)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert getattr(record, field) is value


FAMILY_ERRORS = [
    ((PN, Variant.C1, 0), "branch must be +1 or -1"),
    ((NULL, Variant.C1), "variant C1 is not available for null center "
                         "curves"),
    ((PN, Variant.NULL_C1), "variant NullC1 is not available for "
                            "pseudo-null center curves"),
    ((NULL, Variant.NULL_C1, -1), "null variants take branch +1 only"),
]


@pytest.mark.parametrize("args, message", FAMILY_ERRORS)
def test_canal_family_refuses_bad_arguments(args, message):
    with pytest.raises(ValueError) as err:
        CanalFamily(*args)
    assert type(err.value) is ValueError and str(err.value) == message
    valid = CanalFamily(args[0], Variant.NULL_C1 if args[0] is NULL
                        else Variant.C1)
    assert valid.branch == 1
    with pytest.raises(ValueError) as err:
        valid._replace(**dict(zip(("curve_class", "variant", "branch"),
                                  args)))
    assert str(err.value) == message


FIXED = "a fixed axis needs a finite fixed value and a fixed value an axis"
GRID_ERRORS = [
    (dict(n_s=1), "axis s needs at least 2 samples"),
    (dict(n_w=1, fixed_axis="w", fixed_value=0.5),
     "axis w needs at least 2 samples"),
    (dict(t_range=(1.0, 1.0)), "degenerate t range [1.0, 1.0]"),
    (dict(s_range=(-1e308, 1e308), n_s=3),
     "s range [-1e+308, 1e+308] is too wide: its samples overflow"),
    (dict(fixed_axis="q", fixed_value=0.0),
     "fixed axis must be one of ('s', 't', 'w')"),
    (dict(fixed_axis="w"), f"{FIXED}, got ('w', None)"),
    (dict(fixed_value=0.0), f"{FIXED}, got (None, 0.0)"),
    (dict(fixed_axis="w", fixed_value=math.inf), f"{FIXED}, got ('w', inf)"),
]


@pytest.mark.parametrize("change, message", GRID_ERRORS)
def test_grid_spec_refuses_bad_arguments(change, message):
    with pytest.raises(MeshError) as err:
        GridSpec(**{**GRID, **change})
    assert str(err.value) == message
    valid = GridSpec(**GRID)
    assert (valid.fixed_axis, valid.fixed_value) == (None, None)
    with pytest.raises(MeshError) as err:
        valid._replace(**change)
    assert str(err.value) == message


#: Node fields, so that the reference equality below reads no more of a
#: node than its type and these.
NODE_FIELDS = {ex.Num: ("value",), ex.Var: ("name",), ex.Const: ("name",),
               ex.Neg: ("arg",), ex.Bin: ("op", "left", "right"),
               ex.Call: ("fn", "arg")}
TEXTS = ["s", "t", "w", "pi", "e", "0", "1", "1.0", "1e-999", "2", "-1",
         "-s", "-(s)", "--s", "s+1", "(s)+1", "1+s", "s-1", "s*1", "s/1",
         "s^2", "s^2.0", "2*s", "s*2", "sin(s)", "sin((s))", "cos(s)",
         "sin(t)", "-sin(s)", "sin(-s)", "exp(pi)", "exp(e)", "pi*s",
         "e*s", "sqrt(s^2+1)", "sqrt(1+s^2)"]


def _node_key(node):
    return (type(node),) + tuple(
        _node_key(v) if type(v) in NODE_FIELDS else v
        for v in (getattr(node, f) for f in NODE_FIELDS[type(node)]))


def test_expression_trees_compare_by_node_type_and_fields():
    trees = [ex.parse(text) for text in TEXTS]
    equal_pairs = 0
    for (a, ta), (b, tb) in itertools.combinations(zip(trees, TEXTS), 2):
        same = _node_key(a) == _node_key(b)
        assert (a == b) is same and (a != b) is not same, (ta, tb)
        if same:
            assert hash(a) == hash(b), (ta, tb)
            equal_pairs += 1
    # "0" = "1e-999", "1" = "1.0", "-s" = "-(s)", "s+1" = "(s)+1",
    # "s^2" = "s^2.0" and "sin(s)" = "sin((s))"
    assert equal_pairs == 6


def test_jets_compare_by_coefficients():
    jet = ex.Jet((1.0, 2.0))
    assert jet == ex.Jet((1.0, 2.0)) and hash(jet) == hash(ex.Jet((1.0, 2.0)))
    assert jet != ex.Jet((1.0, 3.0)) and jet != ex.Jet((1.0,))
    assert jet != (1.0, 2.0)


def test_mutable_records_compare_by_fields():
    scene = bundled_scene("pseudo-null-c1-figure")
    report = verify_scene(bundled_scene("pseudo-null-c1"))
    copy = VerifyReport(report.scene, list(report.checks),
                        report.points_checked, report.points_singular)
    assert copy == report
    copy.points_singular += 1
    assert copy != report
    mesh = sweep(scene)
    fields = [mesh.params, mesh.points, mesh.K, mesh.H, mesh.singular,
              mesh.quads]
    assert ProjectedMesh(*fields, mesh.projection) == mesh
    assert ProjectedMesh(*fields, "x1x2x3") != mesh
    # omitted arrays start empty, one per record
    a, b = ProjectedMesh(), ProjectedMesh()
    assert a.quads.tolist() == [] and a.quads is not b.quads
    # quads given as rows are stored as the int array sweep builds
    assert ProjectedMesh(quads=[]) == a
    assert ProjectedMesh(*fields[:5], [tuple(q) for q in mesh.quads.tolist()],
                         mesh.projection) == mesh
    assert (a.params.shape, a.points.shape, a.singular.shape,
            a.quads.shape) == ((0, 3), (0, 4), (0,), (0, 4))
    assert VerifyReport("x").checks is not VerifyReport("x").checks


@pytest.mark.parametrize("name", ["pseudo-null-c1-figure",
                                  "partially-null-c5-figure",
                                  "null-c1-figure"])
def test_sweeps_compare_by_array_values(name):
    # two sweeps of one scene hold equal arrays in distinct objects; one
    # changed K value (a point coordinate for the null family, which has
    # no K) makes them differ
    scene = bundled_scene(name)
    mesh, again = sweep(scene), sweep(scene)
    assert mesh.points is not again.points
    assert mesh == again and not mesh != again
    changed = again.points if again.K is None else again.K
    changed.flat[len(changed) // 2] += 1.0
    assert mesh != again and not mesh == again
