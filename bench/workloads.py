"""Workload corpora and job lists for the lpkit benchmark.

Each workload is a fixed corpus drawn with the test-suite generators
(``random_laurent``, ``random_spatial_isometry`` in ``tests/conftest.py``)
from the workload's corpus seed, written to JSON files, plus a list of CLI
jobs over those files.  The run seed sets the order of the jobs (of the
job chains, where one job's output feeds the next); see README.md for why
it changes nothing else.
"""

from __future__ import annotations

import importlib.util
import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("bilateral-ascent", "isometry-pipeline", "arc-slots")
CORPUS_SEED = {"bilateral-ascent": 1001, "isometry-pipeline": 1002, "arc-slots": 1003}
CLI_SEED = "1"  # --seed of every randomized job

# bilateral-ascent: one polynomial per span; the ascent spans also run at the
# dual pair (1.5, 3), every span at p = 1 and p = 2
ZLINE_ASCENT_SPANS = (3, 8)
ZLINE_EXACT_SPANS = (4, 5, 6, 7)
ZLINE_N_MAX = "96"
# isometry-pipeline: (max atoms, norm exponent) per isometry, drawn with at least
# three quarters of max atoms
ISOMETRY_SIZES = ((8, "3"), (10, "1.5"), (12, "3"), (16, "1.5"), (20, "3"), (25, "1.5"),
                  (30, "3"), (35, "1.5"), (40, "3"), (50, "1.5"), (70, "3"))
# arc-slots: per configuration, order -> None for the full circle, or
# (arcs per 1/order of a turn, arc length in turns)
ARC_SLOTS = (
    {1: None, 2: (1, 0.006), 5: (1, 0.002)},
    {3: (2, 0.002), 6: (1, 0.0015)},
    {1: (1, 0.05), 4: (1, 0.004)},
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``argv`` for ``lpkit.cli.main`` and how to check it.

    ``kind`` is "ascent" when the job runs Boyd's ascent (some p outside
    {1, 2}) and "exact" otherwise.  ``check`` names the output check.
    """

    name: str
    argv: tuple
    kind: str
    check: str
    p: float | None = None
    chain: str | None = None  # write the job's "result" to this file


def _generators(root: str):
    path = os.path.join(root, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("lpkit_test_generators", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.random_laurent, mod.random_spatial_isometry


def _kind(p: str) -> str:
    return "exact" if p in ("1", "2") else "ascent"


def build(workload: str, seed: int, root: str, workdir: str) -> tuple[list[Job], list]:
    """Write the workload's input files under `workdir`; return (jobs, inputs).

    `inputs` lists (path, kind) for every file a job reads that the
    benchmark generated (files chained from a job's output are not listed).
    Paths are relative to `root`, the directory the CLI runs from, so that
    the audit block (which echoes input paths) and hence the output bytes
    do not depend on where the checkout lives.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    random_laurent, random_spatial_isometry = _generators(root)
    os.makedirs(os.path.join(root, workdir), exist_ok=True)
    rng = np.random.default_rng(CORPUS_SEED[workload])

    inputs = []

    def put(name, obj, kind=None):
        path = os.path.join(workdir, name)
        with open(os.path.join(root, path), "w") as fh:
            json.dump(obj, fh)
        if kind is not None:
            inputs.append((path, kind))
        return path

    groups: list[list[Job]] = []  # chains of jobs that must run in order
    if workload == "bilateral-ascent":
        polys = []
        for span in ZLINE_ASCENT_SPANS + ZLINE_EXACT_SPANS:
            f = random_laurent(rng, span=span, n_terms=span + 1)
            polys.append(put(f"poly{span}.json", f.to_json(), "poly"))
            exponents = ("1.5", "3", "1", "2") if span in ZLINE_ASCENT_SPANS else ("1", "2")
            for p in exponents:
                argv = ("norm", "z", "--p", p, "--in", polys[-1], "--n-max", ZLINE_N_MAX,
                        "--seed", CLI_SEED)
                groups.append([Job(f"norm-z/span{span}/p{p}", argv, _kind(p), "bracket",
                                   float(p))])
        argv = ("sweep", "--kind", "z", "--in", polys[0], "--p", "1.5",
                "--n-grid", "4,8,16,32", "--seed", CLI_SEED)
        groups.append([Job("sweep-z/n-grid", argv, "ascent", "sweep")])
        f = random_laurent(rng, span=4, n_terms=5)
        xi = put("xi16.json", f.samples(16).to_json(), "cyclic")
        argv = ("sweep", "--kind", "zn", "--in", xi, "--p-grid", "1:4:0.25", "--seed", CLI_SEED)
        groups.append([Job("sweep-zn/p-grid", argv, "ascent", "sweep")])
    elif workload == "isometry-pipeline":
        from lpkit.lamperti import to_matrix

        for k, (max_atoms, p) in enumerate(ISOMETRY_SIZES):
            v = random_spatial_isometry(rng, max_atoms=max_atoms, max_cycle=6)
            while v.space.n_atoms < 3 * max_atoms // 4:
                v = random_spatial_isometry(rng, max_atoms=max_atoms, max_cycle=6)
            A = to_matrix(v, float(p))
            mat = put(f"matrix{k}.json", {
                "weights": [float(w) for w in v.space.weights],
                "matrix": [[[z.real, z.imag] for z in row] for row in A],
            }, "matrix")
            expected = put(f"expected{k}.json", v.to_json())
            poly = put(f"poly{k}.json", random_laurent(rng, span=3, n_terms=4).to_json(), "poly")
            viso = os.path.join(workdir, f"v{k}.json")
            conf = os.path.join(workdir, f"sigma{k}.json")
            tag = f"iso{k}"
            groups.append([
                Job(f"isom-decompose/{tag}", ("isom", "decompose", "--p", p, "--in", mat),
                    "exact", f"decompose:{expected}", chain=viso),
                Job(f"isom-periods/{tag}", ("isom", "periods", "--in", viso), "exact", "ok"),
                Job(f"isom-trivialize/{tag}", ("isom", "trivialize", "--in", viso),
                    "exact", "ok"),
                Job(f"isom-sigma/{tag}", ("isom", "sigma", "--in", viso), "exact", "ok",
                    chain=conf),
                Job(f"config-saturate/{tag}", ("config", "saturate", "--in", conf),
                    "exact", "ok"),
                Job(f"config-classify/{tag}", ("config", "classify", "--p", p, "--in", conf),
                    "exact", "ok"),
                Job(f"norm-isometry/{tag}/p{p}",
                    ("norm", "isometry", "--p", p, "--mode", "both", "--in", viso,
                     "--poly", poly, "--seed", CLI_SEED),
                    "ascent", "both", float(p)),
            ])
    else:  # arc-slots
        for k, slots in enumerate(ARC_SLOTS):
            finite = {}
            for order, arcs_spec in slots.items():
                if arcs_spec is None:
                    finite[str(order)] = {"points": [], "arcs": [], "full": True}
                    continue
                count, length = arcs_spec
                arcs = []
                for _ in range(count):
                    start = int(rng.integers(0, 1000)) / (1000 * order)
                    arcs += [[round(start + j / order, 12), round(start + j / order + length, 12)]
                             for j in range(order)]
                finite[str(order)] = {"points": [], "arcs": arcs, "full": False}
            conf = put(f"config{k}.json", {"finite": finite, "infinity": "empty"}, "config")
            poly = put(f"poly{k}.json", random_laurent(rng, span=4, n_terms=5).to_json(), "poly")
            for p in ("1.5", "3", "1", "2"):
                argv = ("norm", "sigma", "--p", p, "--in", conf, "--poly", poly,
                        "--seed", CLI_SEED)
                groups.append([Job(f"norm-sigma/config{k}/p{p}", argv, _kind(p), "bracket",
                                   float(p))])
    order = np.random.default_rng(seed).permutation(len(groups))
    jobs = [job for k in order for job in groups[k]]
    # exact jobs first (the stable sort keeps each chain's order), so that the
    # runner can resample all of them between the ascent jobs
    return sorted(jobs, key=lambda job: job.kind == "ascent"), inputs
