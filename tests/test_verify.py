"""The rows of ``verify_scene``: each a worst residual against its
tolerance but for one points guard, the closed-vs-oracle rule that the K
and H rows report, and NaN residuals failing their rows."""


import numpy as np
import pytest

from lmcanal import verify
from lmcanal.cli import NAME_WIDTH
from lmcanal.scene import bundled_scene, bundled_scene_names

GATE_SCENES = [n for n in bundled_scene_names() if not n.endswith("-figure")]


def test_normalized_error_mixed_criterion():
    # the cases of the mixed check |a - b| <= abs + rel max(|a|, |b|), at
    # the module tolerances (rel 1e-4, abs 1e-6)
    def passed(a, b):
        return bool(np.all(verify.normalized_error(a, b) <= 1.0))

    # float pairs: within the relative part, and outside it
    assert passed(1.0, 1.00005) and passed(2.0, 2.0001)
    assert not passed(1.0, 1.1) and passed(1.0, 1.0)
    # near zero the absolute part is the bound
    assert (verify.normalized_error(0.0, 1e-7)
            == pytest.approx(0.1, rel=1e-4))
    assert passed(0.0, 0.0) and not passed(0.0, 2e-6)
    # array pairs: every element must pass
    k = np.array([1.0, 0.0, -3.0])
    h = np.array([2.0, 1.0, 0.5])
    assert passed(k, k + 1e-7)
    assert not passed(h, h + np.array([0.0, 0.1, 0.0]))


def test_normalized_error_passes_exactly_the_errors_within_the_bound():
    # for finite pairs err / bound <= 1 exactly when err <= bound, also
    # one unit in the last place either side of the bound; an infinite
    # value, which inf <= inf would pass, fails
    rng = np.random.default_rng(23)
    a = rng.uniform(-2.0, 2.0, 4000) * 10.0 ** rng.integers(-9, 9, 4000)
    step = rng.integers(-3, 4, 4000) * 2.0 ** -52
    b = a + (verify.ABS_TOL + verify.REL_TOL * np.abs(a)) * (1.0 + step)
    err = np.abs(a - b)
    bound = verify.ABS_TOL + verify.REL_TOL * np.maximum(np.abs(a),
                                                         np.abs(b))
    within = err <= bound
    assert within.any() and not within.all()
    assert np.array_equal(verify.normalized_error(a, b) <= 1.0, within)
    with np.errstate(invalid="ignore"):
        assert np.isnan(verify.normalized_error(np.inf, 1.0))


@pytest.mark.parametrize("name", GATE_SCENES)
def test_every_row_is_a_worst_residual_but_the_points_guard(name):
    report = verify.verify_scene(bundled_scene(name))
    flags = [c for c in report.checks if c.tol is None]
    assert [c.name for c in flags] == [
        f"grid points checked >= 1 (got {report.points_checked})"]
    for c in report.checks:
        assert len(c.name) <= NAME_WIDTH, c.name
        if c.tol is not None:
            assert c.passed == (c.value <= c.tol), c
    assert report.passed


def test_a_nan_residual_fails_its_row():
    table = verify.grid_table(verify.scene_tables(
        bundled_scene("pseudo-null-c1")))
    membership, k_oracle = table.membership.copy(), table.k_oracle.copy()
    membership[7] = k_oracle[100] = np.nan
    report = verify.VerifyReport("pseudo-null-c1")
    nan_table = table._replace(membership=membership,
                               k_oracle=k_oracle)
    verify.check_envelope(nan_table, report)
    verify.check_curvatures(nan_table, report)
    failed = [c.name.split(" ")[0] for c in report.checks if not c.passed]
    assert failed == ["membership", "K"]
    assert all(np.isnan(c.value) for c in report.checks if not c.passed)
    assert not report.passed
