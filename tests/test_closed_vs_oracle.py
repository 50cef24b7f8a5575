"""Closed-form K, H against the oracle on variations of the gate scenes.

The bundled canal scenes all have linear radii, so r'' = 0 there and the
r'' terms of the closed forms go unchecked; they all use branch +1, so the
branch sign folded into the trig value T goes unchecked too.  These tests
rerun the comparison with a quadratic radius and with branch -1.
"""

import random

import numpy as np
import pytest

from lmcanal import oracle
from lmcanal.canal import (CurvaturePair, RadiusSpec, Variant,
                           closed_form_gauge)
from lmcanal.minkowski import inner_rows
from lmcanal.scene import bundled_scene, bundled_scene_names
from lmcanal.verify import (VerifyReport, check_curvatures, grid_table,
                            scene_tables)

GATE_SCENES = [n for n in bundled_scene_names()
               if not n.endswith("-figure") and not n.startswith("null-")]
CANAL_SCENES = [n for n in GATE_SCENES
                if not bundled_scene(n).family.variant.is_tubular]


def closed_and_oracle(scene, s, t, w, step):
    """Closed-form K, H at the points and the oracle's at the given step,
    flipped to the closed form's gauge as verify does; no point may be
    singular."""
    n = len(s)
    fld = scene.field(*oracle.stencil(s, t, w, step))
    forms, degenerate = oracle.forms_batch(oracle.stencil_jets(fld.points,
                                                               step))
    K, H, singular = oracle.curvatures_batch(forms)
    assert not (fld.singular[:n] | degenerate | singular).any()
    radial = fld.points[:n] - fld.center[:n]
    flip = closed_form_gauge(scene.family.variant) * np.where(
        scene.family.lam * inner_rows(forms.normal, radial) > 0, 1, -1)
    return (CurvaturePair(fld.K[:n], fld.H[:n]),
            CurvaturePair(flip * K, flip * H))


@pytest.mark.parametrize("name", CANAL_SCENES)
def test_closed_forms_follow_r2(name):
    # r'' = 1/4; C4 keeps its regime r'^2 > 1 with the steeper radius.
    # One Richardson step (4 D(h/2) - D(h))/3 at the scene's oracle step
    # removes the h^2 error that a plain comparison at rel 1e-3 would hit.
    scene = bundled_scene(name)
    text = ("1.5*s + s^2/8" if scene.family.variant is Variant.C4
            else "s/2 + s^2/8")
    scene = scene._replace(radius=RadiusSpec.from_text(text))
    rng = random.Random(name)
    s, t, w = (np.array([rng.uniform(*scene.grid.range_of(axis))
                         for _ in range(64)]) for axis in ("s", "t", "w"))
    h = scene.oracle_step
    closed, coarse = closed_and_oracle(scene, s, t, w, h)
    _, fine = closed_and_oracle(scene, s, t, w, h / 2)
    richardson = CurvaturePair((4.0 * fine.K - coarse.K) / 3.0,
                               (4.0 * fine.H - coarse.H) / 3.0)
    for name, a, b in (("K", closed.K, richardson.K),
                       ("H", closed.H, richardson.H)):
        err = np.abs(a - b)
        bound = 1e-5 + 1e-3 * np.maximum(np.abs(a), np.abs(b))
        assert (err <= bound).all(), f"{name} worst err {err.max():.3e}"


@pytest.mark.parametrize("name", GATE_SCENES)
def test_branch_minus_one_matches_oracle(name):
    # The branch flips the radial part of the surface; the closed forms
    # see it only through T.  Envelope normality is not asserted here:
    # partially-null-c4 at branch -1 exceeds it at the scene's step by
    # truncation (h^2) error.
    scene = bundled_scene(name)
    family = scene.family._replace(branch=-1)
    report = VerifyReport(name)
    check_curvatures(
        grid_table(scene_tables(scene._replace(family=family))), report)
    rows = [c for c in report.checks
            if c.name.startswith(("K closed vs oracle", "H closed vs oracle"))]
    assert len(rows) == 2
    assert all(c.passed and c.value <= c.tol == 1.0 for c in rows), \
        [(c.name, c.value) for c in rows]
