import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from lpkit.lamperti import (
    AmbiguousExponentError,
    AtomicSpace,
    NotSpatialError,
    SpatialIsometry,
    conjugation_identity_check,
    decompose,
    fpv_norm,
    gauge_trivialize,
    measure_normalize,
    periods,
    spectral_configuration_of,
    standardized_matrix,
    to_matrix,
)
from lpkit.pnorm import _CONVERGENCE_TOL, TIGHT_TOL, interpolation_upper, opnorm, pnorm
from lpkit.specconf import closure_union
from lpkit.zline import LaurentPolynomial

from conftest import random_laurent, random_spatial_isometry


def isometry(weights, h, T, aperiodic=False):
    return SpatialIsometry(AtomicSpace(np.asarray(weights, dtype=float)),
                           np.asarray(h, dtype=complex), np.asarray(T, dtype=int),
                           aperiodic)


def relabeled(v, rng):
    """v with its atoms renumbered at random, so that no cycle is a run of labels."""
    perm = rng.permutation(v.space.n_atoms)  # the new label of each atom
    old = np.argsort(perm)  # the atom behind each new label
    return SpatialIsometry(AtomicSpace(v.space.weights[old]), v.h[old], perm[v.T[old]])


def f_of_matrix(f, A):
    return sum(a * np.linalg.matrix_power(A if m >= 0 else np.linalg.inv(A), abs(m))
               for m, a in f.terms)


class TestToMatrix:
    def test_identity_permutation_is_diagonal(self):
        v = isometry([1, 1, 1], [1j, -1, np.exp(0.2j)], [0, 1, 2])
        assert np.allclose(to_matrix(v, 1.5), np.diag(v.h))

    def test_equal_weights_complex_permutation(self):
        v = isometry([1, 1], [1, np.exp(0.7j)], [1, 0])
        A = to_matrix(v, 3)
        assert np.allclose(np.abs(A[A != 0]), 1.0)
        assert A[1, 0] == pytest.approx(np.exp(0.7j))
        assert A[0, 1] == pytest.approx(1.0)

    def test_radon_nikodym_factors(self):
        v = isometry([1, 2], [1, 1], [1, 0])
        A = to_matrix(v, 1)
        assert A[1, 0] == pytest.approx((1 / 2) ** 1)
        assert A[0, 1] == pytest.approx(2.0)

    def test_weighted_isometry(self, rng):
        for p in (1.0, 1.5, 3.0):
            v = random_spatial_isometry(rng)
            A = to_matrix(v, p)
            w = v.space.weights
            x = rng.standard_normal(v.space.n_atoms) + 1j * rng.standard_normal(v.space.n_atoms)
            before = np.sum(w * np.abs(x) ** p) ** (1 / p)
            after = np.sum(w * np.abs(A @ x) ** p) ** (1 / p)
            assert after == pytest.approx(before, rel=1e-12)
            S = standardized_matrix(v, p)
            assert np.allclose(np.abs(np.sum(np.abs(S), axis=0)), 1.0)

    def test_aperiodic_has_no_matrix(self):
        v = isometry([1], [1], [0], aperiodic=True)
        with pytest.raises(ValueError):
            to_matrix(v, 1)


class TestDecompose:
    def test_diagonal(self):
        space = AtomicSpace(np.ones(2))
        v = decompose(np.diag([1j, -1]), space, 1)
        assert np.allclose(v.h, [1j, -1]) and np.all(v.T == [0, 1])

    def test_hadamard_rejected(self):
        with pytest.raises(NotSpatialError):
            decompose(np.array([[1, 1], [1, -1]]) / math.sqrt(2), AtomicSpace(np.ones(2)), 1)

    def test_p2_refused(self):
        with pytest.raises(AmbiguousExponentError):
            decompose(np.eye(2), AtomicSpace(np.ones(2)), 2)

    def test_swap_with_phases(self):
        theta = 0.3
        A = np.array([[0, np.exp(-1j * theta)], [np.exp(1j * theta), 0]])
        v = decompose(A, AtomicSpace(np.ones(2)), 1.5)
        assert np.all(v.T == [1, 0])
        assert v.h[1] == pytest.approx(np.exp(1j * theta))
        assert v.h[0] == pytest.approx(np.exp(-1j * theta))

    def test_wrong_modulus_rejected(self):
        A = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(NotSpatialError):
            decompose(A, AtomicSpace(np.ones(2)), 1)

    def test_round_trip_random(self, rng):
        for k in range(25):
            v = random_spatial_isometry(rng, max_atoms=12)
            for p in (1.0, 1.5, 3.0):
                back = decompose(to_matrix(v, p), v.space, p)
                assert np.all(back.T == v.T)
                assert np.max(np.abs(back.h - v.h)) <= 1e-9


class TestPeriods:
    def test_cycle_structure(self):
        v = isometry(np.ones(6), np.ones(6), [1, 0, 2, 4, 5, 3])
        pd = periods(v)
        assert pd.slots == {1: [2], 2: [0, 1], 3: [3, 4, 5]}
        assert not pd.aperiodic
        by_cs = {c.cross_section: c for c in pd.cycles}
        assert by_cs[0].length == 2 and by_cs[2].length == 1 and by_cs[3].length == 3
        # atoms listed in T-order
        c3 = by_cs[3]
        for a, b in zip(c3.atoms, c3.atoms[1:]):
            assert v.T[a] == b

    def test_identity(self):
        pd = periods(isometry(np.ones(3), np.ones(3), [0, 1, 2]))
        assert pd.slots == {1: [0, 1, 2]}

    def test_aperiodic_flag_passthrough(self):
        pd = periods(isometry([1], [1], [0], aperiodic=True))
        assert pd.slots == {1: [0]} and pd.aperiodic


class TestGauge:
    def test_two_cycle_phases(self):
        a, b = np.exp(0.3j), np.exp(1.1j)
        v = isometry(np.ones(2), [a, b], [1, 0])
        g, vp = gauge_trivialize(v)
        assert vp.h[0] == pytest.approx(a * b)
        assert vp.h[1] == pytest.approx(1.0)

    def test_trivial_phases_unchanged(self):
        v = isometry(np.ones(4), np.ones(4), [1, 2, 3, 0])
        g, vp = gauge_trivialize(v)
        assert np.allclose(g, 1.0) and np.allclose(vp.h, v.h)

    def test_identity_permutation_unchanged(self, rng):
        h = np.exp(2j * np.pi * rng.random(3))
        v = isometry(np.ones(3), h, [0, 1, 2])
        g, vp = gauge_trivialize(v)
        assert np.allclose(vp.h, h)

    def test_exact_conjugation_identity(self, rng):
        for k in range(10):
            v = random_spatial_isometry(rng)
            g, vp = gauge_trivialize(v)
            for p in (1.0, 3.0):
                lhs = to_matrix(vp, p)
                rhs = np.diag(g) @ to_matrix(v, p) @ np.diag(np.conj(g))
                assert np.max(np.abs(lhs - rhs)) <= 1e-12
            # phases equal one off cross-sections
            cross = {c.cross_section for c in periods(v).cycles}
            for atom in range(v.space.n_atoms):
                if atom not in cross:
                    assert vp.h[atom] == pytest.approx(1.0, abs=1e-12)


class TestMeasureNormalize:
    def test_two_cycle_example(self):
        v = isometry([1, 2], [1, 1], [1, 0])
        nu, vpp = measure_normalize(v)
        assert np.allclose(nu.weights, [1, 1])

    def test_invariant_weights_unchanged(self):
        v = isometry([3, 3, 5], [1, 1, 1], [1, 0, 2])
        nu, _ = measure_normalize(v)
        assert np.allclose(nu.weights, [3, 3, 5])

    def test_rn_factors_become_one(self, rng):
        v = random_spatial_isometry(rng)
        nu, vpp = measure_normalize(v)
        A = to_matrix(vpp, 1.7)
        assert np.allclose(np.abs(A[np.abs(A) > 0]), 1.0)

    def test_norms_preserved(self, rng):
        v = random_spatial_isometry(rng, max_atoms=8)
        _, vpp = measure_normalize(v)
        f = random_laurent(rng, span=3)
        for p in (1.0, 3.0):
            e1 = fpv_norm(f, v, p, "direct", seed=0)
            e2 = fpv_norm(f, vpp, p, "direct", seed=0)
            assert e1.overlaps(e2, 1e-9)


class TestSpectralConfigurationOf:
    def test_diagonal_spectrum(self):
        v = isometry(np.ones(3), [1, 1j, -1], [0, 1, 2])
        sig = spectral_configuration_of(v)
        assert sorted(sig.finite_slots) == [1]
        assert sig.finite_slots[1].points == (Fr(0), Fr(1, 4), Fr(1, 2))

    def test_two_cycle_square_roots(self):
        v = isometry(np.ones(2), [np.exp(0.4j), np.exp(-0.4j)], [1, 0])
        sig = spectral_configuration_of(v)
        assert sig.finite_slots[2].points == (Fr(0), Fr(1, 2))

    def test_three_cycle_roots_of_i(self):
        h = np.array([np.exp(2j * np.pi / 4), 1.0, 1.0])
        v = isometry(np.ones(3), h, [1, 2, 0])
        sig = spectral_configuration_of(v)
        pts = sig.finite_slots[3].points
        assert pts == (Fr(1, 12), Fr(5, 12), Fr(9, 12))

    def test_aperiodic_infinity(self):
        v = isometry([1], [1], [0], aperiodic=True)
        assert spectral_configuration_of(v).infinity_full

    def test_validity_and_spectrum_match(self, rng):
        for k in range(10):
            v = random_spatial_isometry(rng)
            sig = spectral_configuration_of(v)  # constructor validates rotation invariance
            eig = np.linalg.eigvals(standardized_matrix(v, 3))
            support = closure_union(sig).points
            for lam in eig:
                angle = (np.angle(lam) / (2 * np.pi)) % 1.0
                assert abs(abs(lam) - 1.0) <= 1e-9
                dist = min(abs(float(p) - angle) % 1.0 for p in support)
                dist = min(dist, 1.0 - dist)
                assert dist <= 1e-9
            n_points = sum(len(s.points) for s in sig.finite_slots.values())
            assert n_points == v.space.n_atoms

    def test_long_cycles_accepted(self):
        # snapping neighbouring roots of a long cycle's phase can give unequal
        # fractions; every slot must still read as rotation invariant
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = random_spatial_isometry(rng, max_atoms=80, max_cycle=40)
            sig = spectral_configuration_of(v)
            assert sum(len(s.points) for s in sig.finite_slots.values()) == v.space.n_atoms


class TestFpvNorm:
    def test_multiplication_operator_sup(self, rng):
        h = np.exp(2j * np.pi * rng.random(4))
        v = isometry(np.ones(4), h, np.arange(4))
        f = random_laurent(rng, span=2)
        expected = max(abs(f(z)) for z in h)
        for p in (1.0, 2.0, 3.0):
            d, s = fpv_norm(f, v, p, seed=0)
            assert d.lower == pytest.approx(expected, rel=1e-9)
            assert s.lower == pytest.approx(expected, rel=1e-9)

    def test_generator_norm_one(self, rng):
        v = random_spatial_isometry(rng)
        f = LaurentPolynomial(((1, 1),))
        d, s = fpv_norm(f, v, 3, seed=0)
        assert d.lower == pytest.approx(1.0, abs=1e-9)
        assert s.lower == pytest.approx(1.0, abs=1e-9)

    def test_core_two_path_example(self):
        v = isometry(np.ones(2), [np.exp(0.4j), np.exp(-0.4j)], [1, 0])
        f = LaurentPolynomial(((0, (1 + 1j) / 2), (1, (1 - 1j) / 2)))
        d, s = fpv_norm(f, v, 1)
        assert d.lower == pytest.approx(math.sqrt(2), rel=1e-9)
        assert s.lower == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_two_path_overlap_random(self, rng):
        for k in range(10):
            v = random_spatial_isometry(rng, max_atoms=10)
            f = random_laurent(rng, span=3)
            for p in (1.0, 3.0):
                d, s = fpv_norm(f, v, p, seed=k)
                gap = max(d.lower - s.upper, s.lower - d.upper, 0.0)
                assert gap <= 2e-3, (k, p, gap)
            for p in (1.0, 2.0):
                d, s = fpv_norm(f, v, p, seed=k)
                assert abs(d.lower - s.lower) <= 1e-6

    def test_direct_is_max_over_cycles(self, rng):
        # f(v) is the direct sum of f(B_c) over the cycle blocks B_c, so the
        # direct bracket is the largest block bracket, read off the whole f(v)
        for _ in range(4):
            v = relabeled(random_spatial_isometry(rng, max_atoms=14, max_cycle=5), rng)
            f = random_laurent(rng, span=3, n_terms=4)  # a monomial's f(v) is an isometry
            cycles = periods(v).cycles
            for p in (1.0, 1.5, 2.0, 3.0):
                fa = f_of_matrix(f, standardized_matrix(v, p))
                est = fpv_norm(f, v, p, "direct", seed=0)
                # the witness lives on one cycle and reproduces the lower bound on f(v)
                support = set(np.flatnonzero(est.witness).tolist())
                assert any(support <= set(c.atoms) for c in cycles)
                ratio = pnorm(fa @ est.witness, p) / pnorm(est.witness, p)
                assert ratio == pytest.approx(est.lower, rel=1e-12)
                blocks = [fa[np.ix_(c.atoms, c.atoms)] for c in cycles]
                lowers = [opnorm(B, p, seed=0).lower for B in blocks]
                assert est.lower >= max(lowers) * (1.0 - 1e-12)
                uppers = [interpolation_upper(p, np.linalg.norm(B, 1), np.linalg.norm(B, 2),
                                              np.linalg.norm(B, np.inf)) for B in blocks]
                assert est.upper == pytest.approx(max(uppers), rel=1e-13)
                # never above the whole matrix's Riesz-Thorin bound, up to roundoff
                assert est.upper <= opnorm(fa, p, seed=0).upper * (1.0 + 1e-15)

    def test_direct_reads_cycle_entries(self, rng, monkeypatch):
        # each cycle block holds the standardized matrix's entries, bit for bit,
        # read from v itself: the direct path builds no atom-by-atom matrix
        import lpkit.lamperti as lamperti

        v = relabeled(random_spatial_isometry(rng, max_atoms=30, max_cycle=6), rng)
        f = random_laurent(rng, span=3, n_terms=4)
        cycles = periods(v).cycles
        for p in (1.0, 1.5, 3.0):
            S = standardized_matrix(v, p)
            for m, take in ((1, lambda B: B), (-1, lambda B: np.divide(1.0, B.T, out=np.zeros_like(B),
                                                                        where=B.T != 0))):
                blocks = lamperti._cycle_blocks(LaurentPolynomial(((m, 1.0),)), v, p, cycles)
                for B, c in zip(blocks, cycles, strict=True):
                    assert np.array_equal(B, take(S[np.ix_(c.atoms, c.atoms)]))
            want = fpv_norm(f, v, p, "direct", seed=0)
            with monkeypatch.context() as patch:
                for name in ("standardized_matrix", "to_matrix"):
                    patch.setattr(lamperti, name, lambda *args: pytest.fail("atom matrix built"))
                got = fpv_norm(f, v, p, "direct", seed=0)
            assert (got.lower, got.upper) == (want.lower, want.upper)
            assert np.array_equal(got.witness, want.witness)

    def test_direct_one_ascent(self, rng, monkeypatch):
        # every cycle block of order up to 16 in one grouped ascent at the tight
        # tolerance; an order above 16 runs alone, at the same tolerance
        import lpkit.pnorm as pnorm_module

        calls = []
        real = pnorm_module.boyd_lower

        def counting(*args, **kwargs):
            calls.append((kwargs.get("groups", 1), kwargs.get("tol", _CONVERGENCE_TOL)))
            return real(*args, **kwargs)

        monkeypatch.setattr(pnorm_module, "boyd_lower", counting)
        f = random_laurent(rng, span=3, n_terms=4)
        v = random_spatial_isometry(rng, max_atoms=30, max_cycle=6)
        fpv_norm(f, v, 3, "direct", seed=0)
        assert calls == [(len(periods(v).cycles), TIGHT_TOL)]
        calls.clear()
        T = np.roll(np.arange(20), 1)  # one 20-cycle, then two fixed atoms
        w = isometry(rng.random(22) + 0.5, np.exp(2j * np.pi * rng.random(22)),
                     np.concatenate([T, [20, 21]]))
        fpv_norm(f, w, 3, "direct", seed=0)
        assert calls == [(1, TIGHT_TOL), (2, TIGHT_TOL)]

    def test_gauge_invariance(self, rng):
        v = random_spatial_isometry(rng, max_atoms=8)
        _, vp = gauge_trivialize(v)
        f = random_laurent(rng, span=3)
        for p in (1.0, 3.0):
            e1 = fpv_norm(f, v, p, "direct", seed=1)
            e2 = fpv_norm(f, vp, p, "direct", seed=1)
            assert e1.overlaps(e2, 1e-8)

    def test_aperiodic_needs_via_sigma(self):
        v = isometry([1], [1], [0], aperiodic=True)
        f = LaurentPolynomial(((0, 1), (1, 1)))
        with pytest.raises(ValueError):
            fpv_norm(f, v, 1, "direct")
        est = fpv_norm(f, v, 1, "via-sigma", n_max=16)
        assert est.lower == pytest.approx(2.0, rel=1e-9)

    def test_bad_mode(self):
        v = isometry([1], [1], [0])
        with pytest.raises(ValueError):
            fpv_norm(LaurentPolynomial(((0, 1),)), v, 1, "sideways")


class TestConjugationIdentity:
    def test_identity_permutation(self):
        v = isometry(np.ones(3), [1j, -1, 1], [0, 1, 2])
        assert conjugation_identity_check(v, 1) == 0.0

    def test_random(self, rng):
        for k in range(10):
            v = random_spatial_isometry(rng, max_atoms=8)
            for p in (1.0, 3.0):
                assert conjugation_identity_check(v, p) <= 1e-12

    def test_weighted_two_cycle(self):
        v = isometry([1, 4], [np.exp(0.2j), np.exp(-1.3j)], [1, 0])
        assert conjugation_identity_check(v, 1) <= 1e-12


class TestJson:
    def test_round_trip(self, rng):
        v = random_spatial_isometry(rng, aperiodic=True)
        back = SpatialIsometry.from_json(v.to_json())
        assert np.all(back.T == v.T) and np.allclose(back.h, v.h)
        assert np.allclose(back.space.weights, v.space.weights)
        assert back.aperiodic

    def test_validation(self):
        with pytest.raises(ValueError):
            isometry([1, 1], [1, 2.0], [1, 0])  # non-unimodular phase
        with pytest.raises(ValueError):
            isometry([1, 1], [1, 1], [0, 0])  # not a permutation
        with pytest.raises(ValueError):
            AtomicSpace(np.array([1.0, -1.0]))
