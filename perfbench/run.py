"""lmcanal benchmark: fresh-process verify and mesh workloads.

    python3 perfbench/run.py --workload verify-canal --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``./src``.  The seed generates the workload's scene files (see scenes.py)
under ``.perfbench_work/``.  A closed loop with one client follows: a
repetition runs every scene of the workload once, serially, each in its own
fresh interpreter (child.py) that imports lmcanal, parses the scene file
and calls ``lmcanal.cli.main`` -- what one ``lmcanal verify`` or ``lmcanal
mesh`` invocation costs.  Repetitions run until ``--seconds`` is used up
(at least one; two for mesh, whose outputs are compared between
repetitions).  No threads, one process at a time.

``--trace 0`` prints the end-to-end metrics: grid points per second and
per-scene latency (median and max over scenes), averaged over the run's
repetitions, set-up time and peak RSS.  Times are corrected for the
host's speed at the time they were taken: scene times by kernel probes in
the scene process (speed.py), set-up times by a paired reference process
(reference.py); the wall-clock figures are printed too.  ``--trace 1``
runs every scene untraced and then traced, and prints the per-layer
metrics of the traced runs plus the tracing overhead.  Every output is
checked; the last stdout line is one JSON object and the exit code is 1
if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import scenes  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
WORK_DIR = ".perfbench_work"
#: Every run ends, printed result included, within this many seconds.
HARD_LIMIT_S = 170.0
#: Environment of every process the benchmark starts.  numpy's OpenBLAS
#: starts a worker thread per core at import; on the reference machine that
#: start-up took 0.08 s when the host had descheduled the second vCPU and
#: next to nothing when it had not (numpy's import: 0.165 s vs 0.08 s,
#: lmcanal's set-up 0.25 s vs 0.17 s, in phases lasting minutes).  lmcanal
#: never uses more than one BLAS thread (its only BLAS call is a 2 x 4 SVD),
#: and the load model is one process with no threads, so the pool is one
#: thread.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1"}
#: Set-up-only fresh processes per run, each followed by a reference.py
#: process; setup_s is the median of their corrected set-up times.
SETUP_PROBES = 10
#: numpy's import time in reference.py on the reference machine (the
#: median over 40 processes was 0.089 s).  Only the unit of setup_s
#: depends on it: on a machine that imports numpy in this time, setup_s is
#: in wall seconds.
REFERENCE_IMPORT_S = 0.09
#: mesh compares outputs between repetitions.
MIN_REPETITIONS = {"mesh-figures": 2}

#: Program defaults the count identities rest on: CLI --envelope-points,
#: check_epsilon_only's sample count, check_weingarten's 6 * 20^3
#: closed-form evaluations and the oracle's 19-point stencil.
ENVELOPE_POINTS = 200
EPSILON_POINTS = 60
WEINGARTEN_EVALS = 6 * 20 ** 3
STENCIL = 19

END_TO_END = {
    "points_per_s": "1/s",
    "scene_s_p50": "s",
    "scene_s_max": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_CALLS_SELF = ("expr.eval_value", "expr.eval_s", "curves.derive_frame",
               "curves.CurveSpec.point", "canal.evaluate_point",
               "canal.curvature_closed", "oracle.numeric_jet",
               "oracle.fundamental_forms", "minkowski.triple_cross",
               "scene.closed_pair")
PER_LAYER = {
    **{f"{n}.{m}": u for n in _CALLS_SELF
       for m, u in (("calls", "count"), ("self_us", "us/call"))},
    "expr.parse.calls": "count",
    "expr.parse.busy_ms": "ms",
    "curves.derive_frame.distinct_s_ratio": "ratio",
    "canal.weingarten_residuals.busy_s": "s",
    "canal.singular_point.count": "count",
    "oracle.curvatures_numeric.self_us": "us/call",
    "oracle.degenerate.count": "count",
    "oracle.singular_metric.count": "count",
    "verify.check_envelope.busy_s": "s",
    "verify.check_curvatures.busy_s": "s",
    "verify.check_epsilon_only.busy_s": "s",
    "verify.check_weingarten.busy_s": "s",
    "verify.points_checked": "count",
    "verify.points_singular": "count",
    "verify.checked_ratio": "ratio",
    "scene.parse_scene.busy_ms": "ms",
    "mesh.sweep.busy_s": "s",
    "mesh.export_obj.busy_ms": "ms",
    "mesh.export_obj.bytes": "B",
    "mesh.export_field.busy_ms": "ms",
    "mesh.export_field.bytes": "B",
    "mesh.singular_ratio": "ratio",
    "cli.main.self_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.identity_failures": "count",
}

_CHECKED_RE = re.compile(r"(\d+) grid points checked, (\d+) singular skipped")


class BenchError(Exception):
    """The benchmark itself could not run (not a failed output check)."""


def environment(root: str) -> dict:
    import numpy
    return {"machine": platform.machine(), "system": platform.platform(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": _git_sha(root)}


def _git_sha(root: str) -> str:
    """HEAD of the checkout read from .git, or "none" outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def run_child(root: str, spec_path: str, index: int, deadline: float,
              trace: bool = False, setup_only: bool = False) -> dict:
    """Run job ``index`` of the spec in a fresh interpreter and wait for it."""
    out_path = os.path.join(os.path.dirname(spec_path), "result.json")
    cmd = [sys.executable, CHILD, "--root", root, "--spec", spec_path,
           "--job", str(index), "--out", out_path]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"the {HARD_LIMIT_S:.0f} s limit was reached")
    try:
        proc = subprocess.run(cmd, cwd=root, env=CHILD_ENV,
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise BenchError(f"the {HARD_LIMIT_S:.0f} s limit was reached") from e
    if proc.returncode != 0:
        raise BenchError(f"scene process exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_import(root: str, deadline: float) -> float:
    """Seconds reference.py takes to import numpy in a fresh interpreter."""
    try:
        proc = subprocess.run([sys.executable, REFERENCE], cwd=root,
                              env=CHILD_ENV, capture_output=True,
                              text=True, check=True,
                              timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise BenchError(f"the {HARD_LIMIT_S:.0f} s limit was reached") from e
    except subprocess.CalledProcessError as e:
        raise BenchError(f"reference.py exited with {e.returncode}:\n"
                         f"{e.stderr.strip()}") from e
    return json.loads(proc.stdout)["seconds"]


def merge_traces(traces: list) -> dict:
    """Sum the per-process trace totals of one repetition."""
    spans, raised, observed = {}, {}, {}
    for t in traces:
        for name, totals in t["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(totals, 0))
            for key, value in totals.items():
                acc[key] += value
        for name, exc, count in t["raised"]:
            raised[(name, exc)] = raised.get((name, exc), 0) + count
        for key, value in t["observed"].items():
            observed[key] = observed.get(key, 0) + value
    return {"spans": spans,
            "raised": [[n, e, c] for (n, e), c in sorted(raised.items())],
            "observed": observed}


def run_repetition(child, jobs: list, trace: bool) -> list:
    """Every job once, in order, each in its own fresh interpreter.  With
    ``trace`` each job also runs traced right after its untraced run, so
    the two repetitions see the same phases of machine speed."""
    modes = (False, True) if trace else (False,)
    results = {mode: [] for mode in modes}
    for i in range(len(jobs)):
        for mode in modes:
            results[mode].append(child(i, trace=mode))
    reps = []
    for mode, res in results.items():
        rep = {"traced": mode, "jobs": [r["job"] for r in res],
               "peak_rss_mb": max(r["peak_rss_mb"] for r in res)}
        if mode:
            rep["trace"] = merge_traces([r["trace"] for r in res])
        reps.append(rep)
    return reps


# -- output checks ---------------------------------------------------------

def check_job(job: dict, rec: dict) -> str | None:
    """Why one scene run failed its output check, or None if it passed."""
    if rec["error"] is not None:
        return f"raised:\n{rec['error']}"
    if rec["exit"] != 0:
        return f"exit code {rec['exit']}:\n{rec['stdout']}{rec['stderr']}"
    if job["mode"] == "mesh":
        for key in ("obj_vertices", "field_rows"):
            if rec[key] != job["points"]:
                return f"{key} = {rec[key]}, expected {job['points']}"
        return None
    lines = rec["stdout"].strip().splitlines()
    if not lines or lines[-1] != "PASS":
        return "verify did not print PASS"
    m = _CHECKED_RE.search(rec["stdout"])
    if m is None:
        return "verify printed no grid point count"
    if not job["null"] and int(m.group(1)) == 0:
        return "non-null scene checked 0 grid points"
    return None


def check_outputs(jobs: list, reps: list) -> tuple[int, int, list]:
    """(attempted, failed, messages) over every scene run of every
    repetition; mesh files must hash identically in every repetition."""
    by_name = {job["name"]: job for job in jobs}
    attempted = failed = 0
    messages = []
    first_hash = {}
    for i, rep in enumerate(reps):
        for rec in rep["jobs"]:
            attempted += 1
            why = check_job(by_name[rec["name"]], rec)
            if why is None and "sha256" in rec:
                ref = first_hash.setdefault(rec["name"], rec["sha256"])
                if rec["sha256"] != ref:
                    why = f"outputs differ from the first repetition: " \
                          f"{rec['sha256']} vs {ref}"
            if why is not None:
                failed += 1
                messages.append(f"repetition {i} scene {rec['name']}: {why}")
    return attempted, failed, messages


def count_identities(jobs: list, trace: dict) -> list:
    """(name, measured, expected) call-count identities of one traced
    repetition, computed from the generated inputs."""
    spans = trace["spans"]

    def calls(name):
        return spans[name]["calls"]

    points = sum(job["points"] for job in jobs)
    if jobs[0]["mode"] == "mesh":
        return [("canal.evaluate_point.calls", calls("canal.evaluate_point"),
                 points),
                ("scene.closed_pair.calls", calls("scene.closed_pair"),
                 points)]
    s_null = sum(job["null"] for job in jobs)
    s_tub = sum(job["tubular"] for job in jobs)
    jet = points + EPSILON_POINTS * s_null
    return [
        ("oracle.numeric_jet.calls", calls("oracle.numeric_jet"), jet),
        ("canal.evaluate_point.calls", calls("canal.evaluate_point"),
         STENCIL * calls("oracle.numeric_jet")
         + 3 * ENVELOPE_POINTS * len(jobs)),
        ("canal.curvature_closed.calls", calls("canal.curvature_closed"),
         points + WEINGARTEN_EVALS * s_tub),
    ]


# -- metrics ---------------------------------------------------------------

def scene_latencies(jobs: list, reps: list) -> dict:
    """Scene name -> mean latency over repetitions."""
    return {job["name"]: statistics.fmean(
                rec["seconds"] for rep in reps for rec in rep["jobs"]
                if rec["name"] == job["name"])
            for job in jobs}


def end_to_end(jobs: list, reps: list, setups: list) -> dict:
    """Throughput and latencies average over the whole run, in reference
    seconds."""
    points = sum(job["points"] for job in jobs) * len(reps)
    seconds = sum(rec["seconds"] for rep in reps for rec in rep["jobs"])
    per_scene = scene_latencies(jobs, reps).values()
    return {
        "points_per_s": points / seconds,
        "scene_s_p50": statistics.median(per_scene),
        "scene_s_max": max(per_scene),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(jobs: list, trace: dict) -> dict:
    spans, obs = trace["spans"], trace["observed"]
    raised = {(n, e): c for n, e, c in trace["raised"]}

    def ratio(num, den):
        return num / den if den else 0.0

    def busy(name):
        return spans[name]["inclusive_s"]

    out = {}
    for name in _CALLS_SELF:
        s = spans[name]
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_us"] = ratio(s["self_s"], s["calls"]) * 1e6
    checked = obs.get("points_checked", 0)
    singular = obs.get("points_singular", 0)
    out.update({
        "expr.parse.calls": spans["expr.parse"]["calls"],
        "expr.parse.busy_ms": busy("expr.parse") * 1e3,
        "curves.derive_frame.distinct_s_ratio": ratio(
            obs.get("derive_frame_distinct", 0),
            spans["curves.derive_frame"]["calls"]),
        "canal.weingarten_residuals.busy_s":
            busy("canal.weingarten_residuals"),
        "canal.singular_point.count": raised.get(
            ("canal.curvature_closed", "SingularPointError"), 0),
        "oracle.curvatures_numeric.self_us": ratio(
            spans["oracle.curvatures_numeric"]["self_s"],
            spans["oracle.curvatures_numeric"]["calls"]) * 1e6,
        "oracle.degenerate.count": raised.get(
            ("oracle.fundamental_forms", "DegenerateTangentError"), 0),
        "oracle.singular_metric.count": raised.get(
            ("oracle.curvatures_numeric", "SingularMetricError"), 0),
        "verify.points_checked": checked,
        "verify.points_singular": singular,
        "verify.checked_ratio": ratio(checked, checked + singular),
        "scene.parse_scene.busy_ms": busy("scene.parse_scene") * 1e3,
        "mesh.sweep.busy_s": busy("mesh.sweep"),
        "mesh.export_obj.busy_ms": busy("mesh.export_obj") * 1e3,
        "mesh.export_obj.bytes": obs.get("export_obj_bytes", 0),
        "mesh.export_field.busy_ms": busy("mesh.export_field") * 1e3,
        "mesh.export_field.bytes": obs.get("export_field_bytes", 0),
        "mesh.singular_ratio": ratio(obs.get("mesh_singular", 0),
                                     obs.get("mesh_vertices", 0)),
        "cli.main.self_ms": spans["cli.main"]["self_s"] * 1e3,
    })
    for check in ("envelope", "curvatures", "epsilon_only", "weingarten"):
        out[f"verify.check_{check}.busy_s"] = busy(f"verify.check_{check}")
    out["trace.identity_failures"] = sum(
        measured != expected
        for _, measured, expected in count_identities(jobs, trace))
    return out


# -- run -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        root: str) -> tuple[dict, int]:
    deadline = time.monotonic() + HARD_LIMIT_S
    # Only the latest run's files are kept: traced spans take megabytes.
    shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)
    work = os.path.join(root, WORK_DIR, f"{workload}-{seed}-{int(trace)}")
    os.makedirs(work)
    jobs = scenes.generate(workload, seed, work)
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "jobs": jobs}, fh,
                  indent=1)
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} env={json.dumps(environment(root))}")
    print("scenes: " + ", ".join(f"{j['name']}({j['points']})" for j in jobs))

    def child(index, **kw):
        return run_child(root, spec_path, index, deadline, **kw)

    child(0, setup_only=True)  # warm-up: byte-compiles on a fresh checkout
    setup_walls, setups = [], []
    for i in range(SETUP_PROBES):
        setup_wall = child(i % len(jobs), setup_only=True)["setup_wall_s"]
        setup_walls.append(setup_wall)
        setups.append(setup_wall * REFERENCE_IMPORT_S
                      / reference_import(root, deadline))
    reps = []
    min_untraced = MIN_REPETITIONS.get(workload, 1)
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        reps += run_repetition(child, jobs, trace)
        rep_wall = time.monotonic() - rep_start
        if (sum(not r["traced"] for r in reps) >= min_untraced
                and time.monotonic() - start + rep_wall > seconds):
            break

    for i, rep in enumerate(reps):
        print(f"repetition {i}{' traced' if rep['traced'] else ''}: "
              f"scene wall {sum(r['seconds'] for r in rep['jobs']):.3f} s")
    attempted, failed, messages = check_outputs(jobs, reps)
    for msg in messages:
        print(f"FAILED {msg}", file=sys.stderr)
    untraced = [r for r in reps if not r["traced"]]
    e2e = end_to_end(jobs, untraced, setups)
    null_zero = sum(1 for rep in untraced for rec in rep["jobs"]
                    if (m := _CHECKED_RE.search(rec["stdout"]))
                    and m.group(1) == "0")
    print(f"repetitions={len(untraced)} untraced"
          + (f", {len(reps) - len(untraced)} traced" if trace else "")
          + f"; scene runs attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4g}; "
          f"untraced scene runs reporting 0 grid points checked: {null_zero}")
    print("scene latency (s, mean over repetitions): " + ", ".join(
        f"{name}={sec:.3f}"
        for name, sec in scene_latencies(jobs, untraced).items()))
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {e2e[name]:.6g} {unit}")
    wall = sum(rec["wall_s"] for rep in untraced for rec in rep["jobs"])
    points = sum(job["points"] for job in jobs) * len(untraced)
    print(f"  wall clock: points_per_s {points / wall:.6g} 1/s, setup_s "
          f"{statistics.median(setup_walls):.6g} s (the figures above are "
          f"corrected for the host's speed: speed.py, reference.py)")

    if not trace:
        metrics = {n: {"value": e2e[n], "unit": u}
                   for n, u in END_TO_END.items()}
    else:
        traced_reps = [r for r in reps if r["traced"]]
        layers = [per_layer(jobs, r["trace"]) for r in traced_reps]
        layer = {n: statistics.median(m[n] for m in layers) for n in layers[0]}
        wall = [sum(x["seconds"] for x in r["jobs"]) for r in traced_reps]
        base = [sum(x["seconds"] for x in r["jobs"]) for r in untraced]
        layer["trace.overhead_frac"] = (statistics.fmean(wall)
                                        / statistics.fmean(base) - 1.0)
        for r in traced_reps:
            for name, measured, expected in count_identities(jobs, r["trace"]):
                ok = "holds" if measured == expected else "FAILS"
                print(f"  identity {name}: {measured} == {expected} {ok}")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<40} {layer[name]:.6g} {unit}")
        metrics = {n: {"value": layer[n], "unit": u}
                   for n, u in PER_LAYER.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, (0 if failed == 0 else 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(scenes.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lmcanal", "cli.py")):
        print("perfbench: run from the root of an lmcanal checkout "
              "(no src/lmcanal/cli.py here)", file=sys.stderr)
        return 2
    try:
        result, code = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), root)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
