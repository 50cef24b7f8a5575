"""One scene run of the benchmark, in a fresh interpreter.

    python3 perfbench/child.py --root . --spec SPEC.json --job I --out RESULT.json
        [--trace] [--setup-only]

Imports lmcanal from ``<root>/src`` and parses job I's scene file (the
set-up a CLI user pays on every invocation), then runs the job through
``lmcanal.cli.main`` exactly as ``lmcanal verify --scene FILE`` or
``lmcanal mesh --scene FILE --out OBJ --field CSV`` would, timing the call.
The call's time is in reference seconds (see speed.py): kernel probes run
after the scene file is parsed, every 0.1 s during the call (untraced runs
only, so that probes do not fall into spans) and after it; their own time
is taken out of the call's.  Its wall time and the set-up's are recorded
too.  Writes one JSON result.  With ``--trace`` the lmcanal functions are
wrapped by ``tracer.Tracer`` before the scene file is parsed, and the
spans are written to ``<spec dir>/spans/<scene>.npz`` when the job ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

from speed import EDGE_PROBES, SpeedProbe


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _count_lines(path: str, prefix: str = "") -> int:
    with open(path, "r", encoding="ascii") as fh:
        return sum(1 for line in fh if line.startswith(prefix))


def _trace_hooks():
    """Observations taken from arguments and results after a span closes."""
    curve_keys: dict = {}

    def derive_frame(tracer, args, kwargs, result):
        curve = args[0] if args else kwargs["curve"]
        s = args[1] if len(args) > 1 else kwargs["s"]
        # Key like the frame cache does (equal curves share entries); the
        # curve is kept alive so its id cannot be reused by another object.
        entry = curve_keys.get(id(curve))
        if entry is None:
            entry = curve_keys[id(curve)] = (curve, hash(curve))
        tracer.observed.setdefault("derive_frame_keys", set()).add(
            (entry[1], float(s)))

    def add(tracer, key, value):
        tracer.observed[key] = tracer.observed.get(key, 0) + value

    def verify_scene(tracer, args, kwargs, report):
        add(tracer, "points_checked", report.points_checked)
        add(tracer, "points_singular", report.points_singular)

    def sweep(tracer, args, kwargs, mesh):
        add(tracer, "mesh_vertices", len(mesh.vertices))
        add(tracer, "mesh_singular", mesh.n_singular)

    def export(key):
        def hook(tracer, args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            add(tracer, key, os.path.getsize(path))
        return hook

    return {"curves.derive_frame": derive_frame,
            "verify.verify_scene": verify_scene,
            "mesh.sweep": sweep,
            "mesh.export_obj": export("export_obj_bytes"),
            "mesh.export_field": export("export_field_bytes")}


def run_job(cli, job: dict, work_dir: str, probe: SpeedProbe,
            periodic: bool) -> dict:
    if job["mode"] == "mesh":
        obj = os.path.join(work_dir, f"{job['name']}.obj")
        field = os.path.join(work_dir, f"{job['name']}.csv")
        argv = ["mesh", "--scene", job["path"], "--out", obj, "--field", field]
    else:
        argv = ["verify", "--scene", job["path"]]
    out, err = io.StringIO(), io.StringIO()
    error = None
    probes_before = probe.probe_s
    probing = probe.periodic() if periodic else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), probing:
            code = cli.main(argv)
    except Exception:  # a crashing scene is a failed job, not a crashed run
        code = None
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start - (probe.probe_s - probes_before)
    probe.probe(EDGE_PROBES)
    rec = {"name": job["name"], "seconds": probe.reference_s(elapsed),
           "wall_s": elapsed, "exit": code,
           "error": error, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if job["mode"] == "mesh" and code == 0:
        rec["sha256"] = {"obj": _sha256(obj), "field": _sha256(field)}
        rec["obj_vertices"] = _count_lines(obj, "v ")
        rec["field_rows"] = _count_lines(field) - 1
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--job", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src")
    with open(args.spec, "r", encoding="utf-8") as fh:
        job = json.load(fh)["jobs"][args.job]

    start = time.perf_counter()
    sys.path.insert(0, src)
    import lmcanal
    import lmcanal.cli
    import lmcanal.scene
    if not os.path.abspath(lmcanal.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported lmcanal from {lmcanal.__file__}, "
                           f"not from {src}")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(hooks=_trace_hooks())
    lmcanal.scene.load_scene_file(job["path"])
    result = {"setup_wall_s": time.perf_counter() - start}
    probe = SpeedProbe()
    probe.probe(EDGE_PROBES)
    if not args.setup_only:
        work_dir = os.path.dirname(os.path.abspath(args.spec))
        result["job"] = run_job(lmcanal.cli, job, work_dir, probe,
                                periodic=not args.trace)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        spans_dir = os.path.join(os.path.dirname(os.path.abspath(args.spec)),
                                 "spans")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.flush(os.path.join(spans_dir, f"{job['name']}.npz"))
        observed = dict(tracer.observed)
        keys = observed.pop("derive_frame_keys", ())
        observed["derive_frame_distinct"] = len(keys)
        result["trace"] = {
            "spans": tracer.totals(),
            "raised": [[n, e, c]
                       for (n, e), c in sorted(tracer.raised.items())],
            "observed": observed,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
