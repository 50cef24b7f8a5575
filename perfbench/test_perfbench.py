"""Fast tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import re
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import scenes  # noqa: E402
import speed  # noqa: E402
from tracer import TARGETS, Tracer, self_times  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(scenes.WORKLOADS))
def test_same_seed_gives_byte_identical_scene_files(tmp_path, workload):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    jobs_a = scenes.generate(workload, 7, str(a))
    jobs_b = scenes.generate(workload, 7, str(b))
    scenes.generate(workload, 8, str(c))
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)
    assert [j["name"] for j in jobs_a] == [j["name"] for j in jobs_b]
    names = sorted(j["name"] for j in jobs_a)
    assert names == sorted(scenes.WORKLOADS[workload])


def test_generated_scenes_keep_calibration_and_draw_only_counts(tmp_path):
    templates = scenes.load_templates()
    for job in scenes.generate("verify-canal", 3, str(tmp_path)):
        with open(job["path"], encoding="utf-8") as fh:
            doc = json.load(fh)
        ref = templates[job["name"]]
        counts = tuple(doc["grid"][axis][2] for axis in "stw")
        assert counts in scenes.VERIFY_TRIPLES
        for axis in "stw":
            doc["grid"][axis][2] = ref["grid"][axis][2]
        assert doc == ref
        expected = 0 if job["null"] else counts[0] * counts[1] * counts[2]
        assert job["points"] == expected


def test_mesh_scenes_draw_grid_fixed_value_and_projection(tmp_path):
    for job in scenes.generate("mesh-figures", 5, str(tmp_path)):
        with open(job["path"], encoding="utf-8") as fh:
            grid = json.load(fh)["grid"]
        n_s, n_t = grid["s"][2], grid["t"][2]
        assert scenes.MESH_FIRST_RANGE[0] <= n_s <= scenes.MESH_FIRST_RANGE[1]
        assert job["points"] == n_s * n_t
        assert abs(n_s * n_t - scenes.MESH_VERTICES) <= n_s
        assert abs(grid["fixed"]["value"] - 1.0471975511965976) <= 0.15


def test_self_time_on_synthetic_span_tree():
    # root(0..10) -> a(1..4) -> c(2..3); root -> b(5..9); second root d(11..12)
    names = [0, 1, 2, 1, 3]  # root, a, c, b (same name as a), d
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    calls, inclusive, own = self_times(names, parents, starts, ends, 4)
    assert list(calls) == [1, 2, 1, 1]
    assert list(inclusive) == [10.0, 7.0, 1.0, 1.0]
    # root: 10 - (3 + 4); name 1: (3 - 1) + 4; leaves keep their duration
    assert list(own) == [3.0, 6.0, 1.0, 1.0]
    assert own.sum() == pytest.approx(11.0)  # self times tile the roots


def test_tracer_records_nested_spans_and_exceptions():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    leaf_w = tracer.wrap("leaf", leaf)
    outer_w = tracer.wrap("outer", lambda xs: [leaf_w(x) for x in xs])
    assert outer_w([1, 2, 3]) == [1, 2, 3]
    with pytest.raises(ValueError):
        leaf_w(-1)
    totals = tracer.totals()
    assert totals["outer"]["calls"] == 1
    assert totals["leaf"]["calls"] == 4
    assert totals["outer"]["self_s"] <= totals["outer"]["inclusive_s"]
    assert tracer.raised == {("leaf", "ValueError"): 1}


def test_tracer_wraps_every_binding_of_lmcanal():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lmcanal
    import lmcanal.canal
    import lmcanal.cli
    import lmcanal.curves
    import lmcanal.scene
    original = lmcanal.curves.derive_frame
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = lmcanal.curves.derive_frame
        assert wrapped is not original and wrapped.__wrapped__ is original
        for binding in (lmcanal.canal.derive_frame, lmcanal.scene.derive_frame,
                        lmcanal.cli.derive_frame, lmcanal.derive_frame):
            assert binding is wrapped
        scene = lmcanal.scene.bundled_scene("pseudo-null-c1")
        scene.closed_pair(0.5, 1.0, 1.0)
        totals = tracer.totals()
        assert totals["scene.closed_pair"]["calls"] == 1
        assert totals["curves.derive_frame"]["calls"] == 1
        assert totals["canal.curvature_closed"]["calls"] == 1
    finally:
        tracer.uninstall()
    assert lmcanal.canal.derive_frame is original
    assert len({name for name, _, _ in TARGETS}) == len(TARGETS)


def test_metric_names_units_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == set(scenes.WORKLOADS)
    for name in list(e2e) + list(layers) + list(scenes.WORKLOADS):
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name


def _verify_rec(name, stdout, code=0):
    return {"name": name, "seconds": 1.0, "exit": code, "error": None,
            "stdout": stdout, "stderr": ""}


def test_output_checks_count_failures():
    jobs = [{"name": "a", "mode": "verify", "null": False, "points": 8},
            {"name": "n", "mode": "verify", "null": True, "points": 0}]
    ok = "scene a: 8 grid points checked, 0 singular skipped\n  x PASS\nPASS\n"
    null = "scene n: 0 grid points checked, 0 singular skipped\nPASS\n"
    empty = "scene a: 0 grid points checked, 0 singular skipped\nPASS\n"
    good = {"jobs": [_verify_rec("a", ok), _verify_rec("n", null)]}
    assert run.check_outputs(jobs, [good]) == (2, 0, [])
    bad = {"jobs": [_verify_rec("a", empty), _verify_rec("n", "FAIL\n", 2)]}
    attempted, failed, messages = run.check_outputs(jobs, [good, bad])
    assert (attempted, failed) == (4, 2)
    assert "0 grid points" in messages[0]


def test_mesh_outputs_must_repeat_exactly():
    jobs = [{"name": "m", "mode": "mesh", "null": False, "points": 4}]

    def rep(digest):
        rec = _verify_rec("m", "wrote")
        rec.update(obj_vertices=4, field_rows=4,
                   sha256={"obj": digest, "field": "f"})
        return {"jobs": [rec]}

    assert run.check_outputs(jobs, [rep("x"), rep("x")])[1] == 0
    assert run.check_outputs(jobs, [rep("x"), rep("y")])[1] == 1


def test_count_identities_from_inputs():
    jobs = [{"name": "c", "mode": "verify", "null": False, "tubular": False,
             "points": 500},
            {"name": "t", "mode": "verify", "null": False, "tubular": True,
             "points": 512},
            {"name": "n", "mode": "verify", "null": True, "tubular": False,
             "points": 0}]
    jet = 1012 + 60
    spans = {"oracle.numeric_jet": {"calls": jet},
             "canal.evaluate_point": {"calls": 19 * jet + 3 * 200 * 3},
             "canal.curvature_closed": {"calls": 1012 + 48_000}}
    ids = run.count_identities(jobs, {"spans": spans})
    assert all(measured == expected for _, measured, expected in ids)
    spans["canal.curvature_closed"]["calls"] -= 1
    ids = run.count_identities(jobs, {"spans": spans})
    assert sum(m != e for _, m, e in ids) == 1


def test_reference_seconds_scale_with_probe_speed():
    ref = speed.REFERENCE_S
    assert speed.reference_s(2.0, [ref, ref]) == pytest.approx(2.0)
    # a machine at half speed runs the kernel in twice the time
    assert speed.reference_s(2.0, [2 * ref, 2 * ref]) == pytest.approx(1.0)
    # speeds, not times, are averaged: evenly spaced probes
    assert speed.reference_s(1.0, [ref, ref / 3]) == pytest.approx(2.0)


def test_periodic_probes_run_during_python_code_and_stop_after():
    probe = speed.SpeedProbe()
    previous = signal.getsignal(signal.SIGALRM)
    with probe.periodic():
        end = time.perf_counter() + 3.5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert 2 <= len(probe.samples) <= 4
    assert probe.probe_s == pytest.approx(sum(probe.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
