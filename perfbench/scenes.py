"""Seeded scene generation for the benchmark workloads.

Every workload starts from the calibrated gate and figure scenes stored in
``templates.json`` (copies of the scenes bundled with lmcanal, kept here so
the benchmark's inputs do not move when the package data does).  The seed
redraws only what the workload definition says it may: grid counts and the
scene order for the verify workloads; grid counts, the fixed-axis value and
the projection for the mesh workload.  Ranges, curves, radii, shapes,
branches and oracle steps stay as calibrated.

The same (workload, seed) always yields byte-identical scene files.
"""

from __future__ import annotations

import itertools
import json
import os
import random

TEMPLATES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "templates.json")

CANAL_SCENES = tuple(f"{cls}-c{i}" for cls in ("pseudo-null", "partially-null")
                     for i in range(1, 6))
NULL_SCENES = ("null-c1", "null-c2", "null-t1")
#: One tubular scene per variant T1..T4, alternating the curve class.  All
#: eight gate scenes would take 35-45 s per repetition on the reference
#: machine (Weingarten alone costs 2.5-5 s per scene), longer than a run of
#: the other two workloads combined.
TUBULAR_SCENES = ("pseudo-null-t1", "partially-null-t2", "pseudo-null-t3",
                  "partially-null-t4")
FIGURE_SCENES = ("pseudo-null-c1-figure", "partially-null-c5-figure",
                 "null-c1-figure")

#: Verify grids: ordered count triples with every count in 6..10 and
#: n_s*n_t*n_w in [504, 512], i.e. the permutations of (7, 8, 9) and
#: (8, 8, 8).  The seed changes which grid points a scene lands on while its
#: size stays within 2% of 508, so per-scene latency is comparable across
#: seeds.
VERIFY_COUNT_RANGE = (6, 10)
VERIFY_POINTS_RANGE = (504, 512)
VERIFY_TRIPLES = tuple(
    c for c in itertools.product(range(VERIFY_COUNT_RANGE[0],
                                       VERIFY_COUNT_RANGE[1] + 1), repeat=3)
    if VERIFY_POINTS_RANGE[0] <= c[0] * c[1] * c[2] <= VERIFY_POINTS_RANGE[1])

#: Mesh grids: the first swept axis gets a count in 48..64 and the second
#: round(3600 / first), about 3600 vertices per figure scene (the bundled
#: figure grid is 40 x 40).  The fixed w is drawn within +/-0.15 of the
#: calibrated pi/3.
MESH_FIRST_RANGE = (48, 64)
MESH_VERTICES = 3600
MESH_FIXED_JITTER = 0.15
PROJECTIONS = ("x1x2x3", "x1x2x4", "x1x3x4", "x2x3x4")

WORKLOADS = {
    "verify-canal": CANAL_SCENES + NULL_SCENES,
    "verify-tubular": TUBULAR_SCENES,
    "mesh-figures": FIGURE_SCENES,
}


def load_templates() -> dict:
    with open(TEMPLATES, "r", encoding="utf-8") as fh:
        return json.load(fh)


def is_null(doc: dict) -> bool:
    return doc["family"]["variant"].startswith("Null")


def is_tubular(doc: dict) -> bool:
    return doc["family"]["variant"].startswith("T")


def _verify_doc(doc: dict, rng: random.Random) -> dict:
    n_s, n_t, n_w = rng.choice(VERIFY_TRIPLES)
    grid = doc["grid"]
    grid["s"][2], grid["t"][2], grid["w"][2] = n_s, n_t, n_w
    return doc


def _mesh_doc(doc: dict, rng: random.Random) -> dict:
    grid = doc["grid"]
    fixed = grid["fixed"]
    swept = [axis for axis in ("s", "t", "w") if axis != fixed["axis"]]
    n_a = rng.randint(*MESH_FIRST_RANGE)
    grid[swept[0]][2] = n_a
    grid[swept[1]][2] = round(MESH_VERTICES / n_a)
    fixed["value"] = fixed["value"] + rng.uniform(-MESH_FIXED_JITTER,
                                                  MESH_FIXED_JITTER)
    doc["projection"] = rng.choice(PROJECTIONS)
    return doc


def grid_points(doc: dict, mode: str) -> int:
    """Points a job evaluates on its grid: the swept 2D grid for mesh, the
    full 3D grid for verify (none for null families, which have no grid
    check)."""
    grid = doc["grid"]
    axes = ["s", "t", "w"]
    if mode == "mesh":
        axes.remove(grid["fixed"]["axis"])
    elif is_null(doc):
        return 0
    total = 1
    for axis in axes:
        total *= grid[axis][2]
    return total


def generate(workload: str, seed: int, out_dir: str) -> list[dict]:
    """Write the workload's scene files for ``seed`` into ``out_dir`` and
    return one job per scene, in run order."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"known: {sorted(WORKLOADS)}")
    templates = load_templates()
    rng = random.Random(f"{workload}:{seed}")
    mode = "mesh" if workload.startswith("mesh") else "verify"
    names = list(WORKLOADS[workload])
    jobs = []
    for name in names:  # draw per scene in a fixed order, then shuffle
        doc = json.loads(json.dumps(templates[name]))
        doc = (_mesh_doc if mode == "mesh" else _verify_doc)(doc, rng)
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        jobs.append({"name": name, "path": path, "mode": mode,
                     "null": is_null(doc), "tubular": is_tubular(doc),
                     "points": grid_points(doc, mode)})
    rng.shuffle(jobs)
    return jobs
