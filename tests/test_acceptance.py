"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is deterministic and finishes in a few minutes.
"""

import json
import math
from fractions import Fraction as Fr

import numpy as np
from lpkit.cli import main as cli_main
from lpkit.cyclic import (
    CyclicElement,
    classify_isometry,
    fpzn_norm,
    embed_divisor,
    gap_witness,
    restrict,
    rotate,
)
from lpkit.lamperti import (
    AtomicSpace,
    NotSpatialError,
    conjugation_identity_check,
    decompose,
    fpv_norm,
    gauge_trivialize,
    measure_normalize,
    to_matrix,
)
from lpkit.pnorm import opnorm, opnorm_oracle
from lpkit.specconf import (
    ArcSet,
    SpectralConfiguration,
    canonically_equivalent,
    fpsigma_norm,
    lattice_sup,
    leq,
    membership_probe,
    roots_of_unity_set,
    saturate,
)
from lpkit.zline import cyclic_lower, fpz_norm, norm_l1, norm_sup

from conftest import random_laurent, random_spatial_isometry


def _criterion(num: int, name: str, ok: bool):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {name}"


def _random_xi(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_criterion_01_p2_collapse():
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 17))
        xi = _random_xi(rng, n)
        est = fpzn_norm(CyclicElement(n, xi), 2)
        ok &= abs(est.lower - np.max(np.abs(xi))) <= 1e-8
    _criterion(1, "p=2 norm collapses to sup|xi| (200 random, n<=16)", ok)


def test_criterion_02_p1_exactness():
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 13))
        xi = _random_xi(rng, n)
        est = fpzn_norm(CyclicElement(n, xi), 1)
        # independent path: dense DFT conjugation, max column sum
        j = np.arange(n)
        u = np.exp(-2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)
        C = u @ np.diag(xi) @ u.conj().T
        colsum = float(np.max(np.sum(np.abs(C), axis=0)))
        ok &= abs(est.lower - colsum) <= 1e-12 * max(1.0, colsum)
    spot = fpzn_norm(CyclicElement(2, [1, 1j]), 1).lower
    ok &= abs(spot - math.sqrt(2)) <= 1e-12
    _criterion(2, "p=1 norm equals circulant column sum; |(1,i)| = sqrt(2)", ok)


def test_criterion_03_embed_isometric_restrict_contractive():
    rng = np.random.default_rng(1003)
    ok = True
    for m in range(2, 13):
        for d in [d for d in range(1, m + 1) if m % d == 0]:
            small = CyclicElement(d, _random_xi(rng, d))
            beta = CyclicElement(m, _random_xi(rng, m))
            for p in (1.0, 1.5, 3.0):
                ns = fpzn_norm(small, p, seed=3)
                ne = fpzn_norm(embed_divisor(small, m), p, seed=3)
                ok &= ne.overlaps(ns, 1e-6)
                nb = fpzn_norm(beta, p, seed=3)
                for off in range(m // d):
                    nr = fpzn_norm(restrict(beta, d, off), p, seed=3)
                    ok &= nr.lower <= nb.upper + 1e-6
    _criterion(3, "divisor embedding isometric, restriction contractive (d|m<=12)", ok)


def test_criterion_04_rotation_invariance():
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 13))
        x = CyclicElement(n, _random_xi(rng, n))
        r = rotate(x, int(rng.integers(0, 2 * n)))
        for p in (1.0, 2.0):
            ok &= abs(fpzn_norm(x, p).lower - fpzn_norm(r, p).lower) <= 1e-8
    for k in range(10):
        n = int(rng.integers(2, 8))
        x = CyclicElement(n, _random_xi(rng, n))
        r = rotate(x, int(rng.integers(0, n)))
        ok &= fpzn_norm(x, 3, seed=k).overlaps(fpzn_norm(r, 3, seed=k), 1e-9)
    _criterion(4, "rotation invariance (100 random, dev <= 1e-8)", ok)


def test_criterion_05_isometry_classification():
    rng = np.random.default_rng(1005)
    ok = True
    for n in range(1, 7):
        for k in range(n):
            for z in range(12):
                zeta = np.exp(2j * np.pi * (z / 12 + 0.0137))
                xi = zeta * np.exp(2j * np.pi * k * np.arange(n) / n)
                for p in (1.0, 3.0):
                    res = classify_isometry(CyclicElement(n, xi), p)
                    ok &= res.kind == "isometry" and res.k == k
    for i in range(100):
        n = int(rng.integers(2, 7))
        xi = np.exp(2j * np.pi * rng.random(n))
        for p in (1.0, 3.0):
            res = classify_isometry(CyclicElement(n, xi), p, seed=i)
            ok &= res.kind == "not-isometry" and res.excess > 0.0
    _criterion(5, "isometry classification exact on canonical family + 100 random", ok)


def test_criterion_06_gap_witness():
    ok = True
    for n, d in ((2, 1), (4, 2), (6, 3), (6, 2)):
        for p in (1.0, 3.0):
            _, margin = gap_witness(n, d, p, seed=0)
            ok &= margin >= 0.05
    _criterion(6, "gap witness margin >= 0.05 for (2,1),(4,2),(6,3),(6,2) at p in {1,3}", ok)


def test_criterion_07_norm_engine_soundness():
    rng = np.random.default_rng(1007)
    ok = True
    for i in range(100):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for p in (1.3, 2.6):
            est = opnorm(A, p, seed=i)
            orc = opnorm_oracle(A, p, samples=16, seed=i)
            ok &= orc <= est.lower + 1e-6 <= est.upper + 1e-6
            dual = opnorm(A.T, p / (p - 1.0), seed=i)
            ok &= est.overlaps(dual, 1e-9)
    _criterion(7, "oracle <= lower <= upper and transpose duality (100 matrices)", ok)


def test_criterion_08_f1_convergence():
    rng = np.random.default_rng(1008)
    ok = True
    for _ in range(20):
        f = random_laurent(rng, span=5)
        for chain in ([2, 4, 8, 16, 32, 64, 128, 256, 512],
                      [3, 6, 12, 24, 48, 96, 192, 384]):
            vals = [cyclic_lower(f, n, 1) for n in chain]
            ok &= all(a <= b + 1e-8 for a, b in zip(vals, vals[1:]))
        ok &= cyclic_lower(f, 512, 1) >= norm_l1(f) - 1e-3
    _criterion(8, "F^1(Z) cyclic lower bounds monotone, reach l1 by n=512", ok)


def test_criterion_09_sandwich():
    rng = np.random.default_rng(1008)  # same corpus seed as criterion 8
    ok = True
    for _ in range(20):
        f = random_laurent(rng, span=5)
        for p in (1.5, 3.0):
            est = fpz_norm(f, p, n_max=48)
            ok &= norm_sup(f) - 1e-6 <= est.lower
            ok &= est.lower <= est.upper <= norm_l1(f) + 1e-12
    _criterion(9, "sup <= fpz lower <= upper <= l1 sandwich (p in {1.5, 3})", ok)


def _random_points_config(rng):
    slots = {}
    for n in rng.choice([1, 2, 3, 4, 6], size=int(rng.integers(1, 4)), replace=False):
        n = int(n)
        slots[n] = roots_of_unity_set(n, Fr(int(rng.integers(0, 12)), 12))
    return SpectralConfiguration(slots)


def test_criterion_10_saturation():
    rng = np.random.default_rng(1010)
    ok = True
    for k in range(50):
        cfg = _random_points_config(rng)
        sat = saturate(cfg)
        ok &= sat.is_saturated
        ok &= canonically_equivalent(sat, saturate(sat))
        ok &= leq(cfg, sat)
        bigger = lattice_sup([sat, _random_points_config(rng)])
        ok &= leq(sat, bigger)
        if k < 10:
            f = random_laurent(rng, span=6)
            for p in (1.0, 3.0):
                e1 = fpsigma_norm(f, cfg, p, seed=k)
                e2 = fpsigma_norm(f, sat, p, seed=k)
                ok &= e1.overlaps(e2, 1e-6)
    _criterion(10, "saturation idempotent, minimal, norm-invariant (50 configs)", ok)


def test_criterion_11_dichotomy_wiring():
    rng = np.random.default_rng(1011)
    ok = True
    conf_inf = SpectralConfiguration({}, infinity_full=True)
    for k in range(10):
        f = random_laurent(rng, span=3)
        es = fpsigma_norm(f, conf_inf, 1.5, n_max=32, seed=k)
        ez = fpz_norm(f, 1.5, n_max=32, seed=k)
        ok &= es.overlaps(ez, 1e-9)
    cfg1 = SpectralConfiguration({1: ArcSet(points=(Fr(1, 7), Fr(2, 7), Fr(1, 2)))})
    for k in range(5):
        f = random_laurent(rng, span=4)
        est = fpsigma_norm(f, cfg1, 3, seed=k)
        sup = max(abs(f(np.exp(2j * np.pi * t))) for t in (1 / 7, 2 / 7, 1 / 2))
        ok &= abs(est.lower - sup) <= 1e-9 and abs(est.upper - sup) <= 1e-9
    _criterion(11, "full-infinity norm matches F^p(Z); order-1 gives exact sup", ok)


def test_criterion_12_membership_probe():
    sigma = saturate(SpectralConfiguration({2: ArcSet(points=(0, Fr(1, 2)))}))
    member = membership_probe(0, 2, sigma, 1)
    non = membership_probe(Fr(1, 4), 2, sigma, 1)
    ok = member.verdict == "member" and non.verdict == "not-member"
    _criterion(12, "bump probe: 1 in slot 2 -> member, i -> not-member", ok)


def test_criterion_13_lamperti_round_trip():
    rng = np.random.default_rng(1013)
    ok = True
    for _ in range(100):
        v = random_spatial_isometry(rng, max_atoms=12)
        for p in (1.0, 1.5, 3.0):
            back = decompose(to_matrix(v, p), v.space, p)
            ok &= bool(np.all(back.T == v.T))
            ok &= float(np.max(np.abs(back.h - v.h))) <= 1e-9
    try:
        decompose(np.array([[1, 1], [1, -1]]) / math.sqrt(2), AtomicSpace(np.ones(2)), 1)
        ok = False
    except NotSpatialError:
        pass
    _criterion(13, "decompose(to_matrix) identity (100 random); Hadamard rejected", ok)


def test_criterion_14_conjugation_identity():
    rng = np.random.default_rng(1014)
    ok = True
    for _ in range(50):
        v = random_spatial_isometry(rng, max_atoms=10)
        p = float(rng.choice([1.0, 1.5, 3.0]))
        ok &= conjugation_identity_check(v, p) <= 1e-12
    _criterion(14, "permutation-multiplication conjugation identity <= 1e-12", ok)


def test_criterion_15_two_path_headline():
    rng = np.random.default_rng(1015)
    ok = True
    for k in range(50):
        v = random_spatial_isometry(rng, max_atoms=10, max_cycle=4)
        f = random_laurent(rng, span=3)
        for p in (1.0, 3.0):
            d, s = fpv_norm(f, v, p, seed=k)
            combined = (d.upper - d.lower) + (s.upper - s.lower)
            gap = max(d.lower - s.upper, s.lower - d.upper, 0.0)
            ok &= gap <= combined + 2e-3
        for p in (1.0, 2.0):
            d, s = fpv_norm(f, v, p, seed=k)
            ok &= abs(d.lower - s.lower) <= 1e-6
    _criterion(15, "direct vs via-sigma brackets overlap (50 v); exact at p in {1,2}", ok)


def test_criterion_16_gauge_and_measure_invariance():
    rng = np.random.default_rng(1015)  # same corpus as criterion 15
    ok = True
    for k in range(50):
        v = random_spatial_isometry(rng, max_atoms=10, max_cycle=4)
        f = random_laurent(rng, span=3)
        _, vp = gauge_trivialize(v)
        _, vm = measure_normalize(v)
        for p in (1.0, 3.0):
            base = fpv_norm(f, v, p, "direct", seed=k)
            for other in (vp, vm):
                est = fpv_norm(f, other, p, "direct", seed=k)
                if p == 1.0:
                    ok &= abs(est.lower - base.lower) <= 1e-8
                else:
                    ok &= est.overlaps(base, 1e-8)
    _criterion(16, "gauge and measure normalization preserve norms", ok)


def test_criterion_17_cli_determinism(tmp_path, capsys):
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps({"n": 3, "xi": [[1, 0], [0, 1], [-1, 0]]}))
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps({"terms": [{"m": -1, "a": [0.5, 0.25]},
                                          {"m": 2, "a": [1, -1]}]}))
    runs = [
        ["norm", "zn", "--p", "1.7", "--in", str(xi), "--seed", "5"],
        ["norm", "z", "--p", "2.6", "--in", str(poly), "--seed", "9", "--n-max", "32"],
        ["sweep", "--kind", "zn", "--in", str(xi), "--p-grid", "1:3:0.5", "--seed", "2"],
    ]
    ok = True
    for argv in runs:
        rc1 = cli_main(argv)
        out1 = capsys.readouterr().out
        rc2 = cli_main(argv)
        out2 = capsys.readouterr().out
        ok &= rc1 == 0 and rc2 == 0 and out1 == out2 and len(out1) > 0
    _criterion(17, "CLI runs are byte-identical for identical configuration", ok)
