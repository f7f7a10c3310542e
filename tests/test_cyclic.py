import math

import numpy as np
import pytest

from lpkit.cyclic import (
    CyclicElement,
    circulant_of,
    classify_isometry,
    embed_divisor,
    fpzn_norm,
    fpzn_norms,
    gap_margin,
    gap_witness,
    restrict,
    rotate,
)
from lpkit.pnorm import TIGHT_TOL, boyd_lower, default_starts, opnorm, opnorm_oracle, pnorm

from conftest import (brackets, patch_ascents, patch_chunk_columns, random_laurent,
                      random_unimodular)


def dense_norm_via_dft(xi, p, seed=0):
    """Independent path: conjugate diag(xi) by the DFT unitary, then opnorm."""
    n = len(xi)
    j = np.arange(n)
    u = np.exp(-2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)
    C = u @ np.diag(xi) @ u.conj().T
    return opnorm(C, p, seed=seed)


class TestCirculantOf:
    def test_unit_is_identity(self):
        assert np.allclose(circulant_of(CyclicElement(2, [1, 1])), np.eye(2), atol=1e-14)

    def test_generator_is_shift(self):
        for n in (2, 3, 5, 8):
            C = circulant_of(CyclicElement.generator(n))
            shift = np.zeros((n, n))
            shift[np.arange(1, n), np.arange(n - 1)] = 1.0
            shift[0, n - 1] = 1.0
            assert np.allclose(C, shift, atol=1e-12)

    def test_two_by_two(self):
        C = circulant_of(CyclicElement(2, [1, 1j]))
        assert np.allclose(C, 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]))

    def test_entries_depend_on_difference(self, rng):
        for n in (1, 6):
            x = CyclicElement(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            C, c = circulant_of(x), x.coefficients()
            assert C.shape == (n, n)
            for i in range(n):
                for j in range(n):
                    assert C[i, j] == c[(i - j) % n]


class TestFpznNorm:
    @pytest.mark.parametrize("n, p", [(5, 1.0), (5, 2.0), (1, 1.5), (5, 1.5), (40, 3.0)])
    def test_python_floats(self, rng, n, p):
        est = fpzn_norm(CyclicElement(n, rng.standard_normal(n) + 1j * rng.standard_normal(n)), p)
        assert type(est.lower) is float and type(est.upper) is float

    def test_permutation_tuple_norm_one(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            est = fpzn_norm(CyclicElement(2, [1, -1]), p, seed=0)
            assert est.lower == pytest.approx(1.0, abs=1e-10)
            assert est.upper == pytest.approx(1.0, abs=1e-10)

    def test_one_i_at_p1(self):
        est = fpzn_norm(CyclicElement(2, [1, 1j]), 1)
        # column sum (|1+i| + |1-i|) / 2 = sqrt(2), cross-checked by the oracle
        assert est.lower == pytest.approx(math.sqrt(2), rel=1e-14)
        orc = opnorm_oracle(circulant_of(CyclicElement(2, [1, 1j])), 1, samples=32, seed=0)
        assert orc <= est.lower + 1e-6
        assert orc == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_p2_is_sup(self):
        est = fpzn_norm(CyclicElement(4, [3, 1, 2, 5]), 2)
        assert est.lower == 5.0 and est.upper == 5.0

    def test_matches_dense_path(self, rng):
        for k in range(6):
            n = int(rng.integers(2, 10))
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for p in (1.0, 1.5, 2.0, 3.0):
                mine = fpzn_norm(CyclicElement(n, xi), p, seed=k)
                dense = dense_norm_via_dft(xi, p, seed=k)
                assert mine.overlaps(dense, 1e-9), (n, p)

    def test_dominates_sup_of_coordinates(self, rng):
        for p in (1.0, 1.3, 3.0, 7.0):
            for k in range(4):
                n = int(rng.integers(2, 12))
                xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                est = fpzn_norm(CyclicElement(n, xi), p, seed=k)
                assert est.lower >= np.max(np.abs(xi)) - 1e-8

    def test_p_monotone_toward_two(self, rng):
        xi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = CyclicElement(5, xi)
        # norms decrease toward p = 2 from both sides
        for p, q in ((1.0, 1.5), (1.5, 2.0), (3.0, 2.5), (2.5, 2.0)):
            ep = fpzn_norm(x, p, seed=0)
            eq = fpzn_norm(x, q, seed=0)
            assert eq.lower <= ep.upper + 1e-6

    def test_submultiplicative(self, rng):
        for k in range(4):
            n = int(rng.integers(2, 8))
            a = CyclicElement(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            b = CyclicElement(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for p in (1.0, 1.5, 3.0):
                eab = fpzn_norm(a.multiply(b), p, seed=k)
                ea, eb = fpzn_norm(a, p, seed=k), fpzn_norm(b, p, seed=k)
                assert eab.lower <= ea.upper * eb.upper + 1e-6

    def test_reversal_duality(self, rng):
        for k in range(4):
            n = int(rng.integers(2, 8))
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            rev = xi[(-np.arange(n)) % n]
            for p in (1.3, 2.6):
                est = fpzn_norm(CyclicElement(n, xi), p, seed=k)
                dual = fpzn_norm(CyclicElement(n, rev), p / (p - 1.0), seed=k)
                assert est.overlaps(dual, 1e-9)


class TestFpznNorms:
    @staticmethod
    def _elements(rng, n, count):
        # polynomial samples: their ascents stop on the stall rule as well as
        # on settling, so a batch mixes groups that stop differently
        return [random_laurent(rng, span=5).samples(n) for _ in range(count)]

    @staticmethod
    def _rows(xs):
        return np.array([x.xi for x in xs])

    @staticmethod
    def _solve(xi, p, **kwargs):
        """fpzn_norms of one (k, n) array, one record per row."""
        [solved] = fpzn_norms([xi], p, **kwargs)
        return brackets(solved)

    @staticmethod
    def _assert_same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.lower == b.lower and a.upper == b.upper
            assert np.array_equal(a.witness, b.witness)

    @staticmethod
    def _count_blocks(monkeypatch):
        blocks = [0]

        def wrap(real):
            def counting(*args, **kwargs):
                blocks[0] += 1
                return real(*args, **kwargs)
            return counting

        patch_ascents(monkeypatch, wrap)
        return blocks

    @pytest.mark.parametrize("n", [1, 5, 8, 16, 40, 96])
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_batches_match_single_calls(self, rng, monkeypatch, n, p):
        import lpkit.cyclic as cyclic

        xs = self._elements(rng, n, 7)
        singles = [fpzn_norm(x, p, seed=2) for x in xs]
        for size in (1, 2, 7):
            self._assert_same(self._solve(self._rows(xs[:size]), p, seed=2), singles[:size])
        # a cap of three elements' columns splits the seven into blocks of 3, 3
        # and 1, dense (n <= 16) or FFT; order-1 tuples are exact and run no block
        # above order 32 a block holds e_0, 8 eigenvectors and 16 random columns
        width = 25 if n > 32 else cyclic._circulant_starts(n, 32, 0).shape[1]
        patch_chunk_columns(monkeypatch, 3 * width)
        blocks = self._count_blocks(monkeypatch)
        self._assert_same(self._solve(self._rows(xs), p, seed=2), singles)
        assert blocks[0] == (0 if n == 1 else 3)

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 50.0])
    def test_order_one_is_exact(self, rng, monkeypatch, p):
        def refuse(*args, **kwargs):
            raise AssertionError("an order-1 tuple needs no ascent")

        patch_ascents(monkeypatch, lambda real: refuse)
        xs = [CyclicElement(1, [z]) for z in rng.standard_normal(6) + 1j * rng.standard_normal(6)]
        xs.append(CyclicElement(1, [0.0]))
        for x, est in zip(xs, self._solve(self._rows(xs), p, seed=2)):
            # bit-equal to the exact p = 2 value, so a search over order-1
            # tuples ranks their angles alike at every p
            assert est.lower == est.upper == np.abs(x.xi[0]) == fpzn_norm(x, 2).lower
            assert np.array_equal(est.witness, [1.0])
            assert fpzn_norm(x, p, seed=2).method == "boyd+interp"

    def test_one_above_the_chunk_cap(self, rng, monkeypatch):
        # dense products at order 5, FFT products at order 40 (e_0, 8 eigenvectors
        # and 16 random columns per tuple)
        import lpkit.cyclic as cyclic
        import lpkit.pnorm as pnorm_mod

        for n, width in ((5, cyclic._circulant_starts(5, 32, 0).shape[1]), (40, 25)):
            xs = self._elements(rng, n, pnorm_mod._CHUNK_COLUMNS // width + 1)
            singles = [fpzn_norm(x, 3.0, seed=2) for x in xs]
            with monkeypatch.context() as patch:
                blocks = self._count_blocks(patch)
                self._assert_same(self._solve(self._rows(xs), 3.0, seed=2), singles)
            assert blocks[0] == 2

    def test_reversed_batch(self, rng):
        for n, p in ((6, 1.5), (40, 3.0)):
            xs = self._elements(rng, n, 9)
            forward = self._solve(self._rows(xs), p, seed=1)
            self._assert_same(self._solve(self._rows(xs[::-1]), p, seed=1)[::-1], forward)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_arrays_of_other_orders_change_no_bit(self, rng, monkeypatch, p):
        # an array's triple is its solve alone, bit for bit, next to arrays of other
        # orders: padded to order 7 (the order-5 array a next to b), past 8 (next to
        # an order-12 array, where numpy's pairwise sums would regroup), next to an
        # FFT order, and under a cap of one tuple's columns per block
        import lpkit.cyclic as cyclic

        def solved_a(batch, seed):
            [got] = [s for xi, s in zip(batch, fpzn_norms(batch, p, tol=TIGHT_TOL, seed=seed))
                     if xi is a]
            return got

        for case in range(4):
            a = self._rows(self._elements(rng, 5, 1 + case % 3))
            b = self._rows(self._elements(rng, 7, 2))
            alone = solved_a([a], case)
            others = [self._rows(self._elements(rng, n, 2)) for n in (12, 40)]
            for batch in ([a, b], [b, a], [a, others[0]], [others[1], a, b]):
                got = solved_a(batch, case)
                assert all(x.tobytes() == y.tobytes() for x, y in zip(got, alone, strict=True))
            with monkeypatch.context() as patch:
                patch_chunk_columns(patch, cyclic._circulant_starts(5, 32, 0).shape[1])
                got = solved_a([b, a], case)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, alone, strict=True))

    @pytest.mark.parametrize("n", [6, 12])
    def test_one_start_block_for_both_products(self, rng, monkeypatch, n):
        # the dense stacks and the FFT blocks start a circulant from the same block;
        # PAD_ORDER = 0 sends every order to the FFT blocks
        import lpkit.pnorm as pnorm_mod

        xs = self._elements(rng, n, 2)
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for kwargs in ({}, {"starts": [start]}):
            runs = []
            for pad in (pnorm_mod.PAD_ORDER, 0):
                starts = []

                def wrap(real):
                    def recording(matmat, rmatmat, block, p, **kw):
                        starts.append(block)
                        return real(matmat, rmatmat, block, p, **kw)
                    return recording

                with monkeypatch.context() as patch:
                    patch.setattr(pnorm_mod, "PAD_ORDER", pad)
                    patch_ascents(patch, wrap)
                    runs.append((self._solve(self._rows(xs), 1.5, seed=3, **kwargs), starts))
            (dense, [dense_starts]), (fft, [fft_starts]) = runs
            assert np.array_equal(dense_starts, fft_starts)
            for a, b in zip(dense, fft, strict=True):
                assert a.lower == pytest.approx(b.lower, rel=1e-12)

    def test_exact_exponents_and_empty(self, rng):
        xs = self._elements(rng, 5, 4)
        for p in (1.0, 2.0):
            self._assert_same(self._solve(self._rows(xs), p), [fpzn_norm(x, p) for x in xs])
        assert self._solve(np.empty((0, 5)), 1.5) == []
        assert fpzn_norms([], 1.5) == []

    @pytest.mark.parametrize("n", [2, 5, 6, 40])
    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0])
    def test_carried_start_keeps_eigenvector_value(self, rng, n, p):
        # a circulant with nonnegative coefficients has norm xi_0 = max |xi|,
        # reached at the constant eigenvector; the start block keeps that column
        xs = [CyclicElement(n, np.fft.ifft(rng.random(n)) * n) for _ in range(4)]
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi = self._rows(xs)
        for a, b in zip(self._solve(xi, p, seed=1, starts=[start]), self._solve(xi, p, seed=1)):
            assert a.lower == b.lower and a.upper == b.upper

    @pytest.mark.parametrize("n", [3, 6, 40])
    @pytest.mark.parametrize("p", [1.25, 3.0])
    def test_carried_start_witness(self, rng, n, p):
        def value(x, w):
            return pnorm(circulant_of(x) @ w, p) / pnorm(w, p)

        xs = self._elements(rng, n, 3)
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for x, est in zip(xs, self._solve(self._rows(xs), p, seed=1, starts=[start])):
            # the ascent from the carried start never ends below where it began,
            # and the witness reproduces the value reached
            assert est.lower >= value(x, start) * (1 - 1e-14)
            assert value(x, est.witness) == pytest.approx(est.lower, rel=1e-13)
            assert est.lower >= np.max(np.abs(x.xi)) * (1 - 1e-14)

    @pytest.mark.parametrize("xi", [
        pytest.param([[1.0, np.nan]], id="nan"),
        pytest.param([[1.0, 2.0], [complex(0.0, np.inf), 1.0]], id="inf"),
        pytest.param([1.0, 2.0], id="one-d"),
        # rows of orders 3 and 4: an array has one order
        pytest.param([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]], id="ragged"),
    ])
    def test_input_contract(self, monkeypatch, xi):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before checking its input")

        patch_ascents(monkeypatch, lambda real: refuse)
        with pytest.raises(ValueError):
            fpzn_norms([xi], 1.5)
        # one bad array refuses the call before any array is solved
        with pytest.raises(ValueError):
            fpzn_norms([np.ones((2, 3)), xi], 1.5)

    def test_start_of_another_order(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before checking the start's order")

        patch_ascents(monkeypatch, lambda real: refuse)
        for orders in ((4,), (3, 4), (4, 40)):
            with pytest.raises(ValueError, match="start of order 3"):
                fpzn_norms([np.ones((2, n)) for n in orders], 1.5,
                           starts=[np.ones(3)] * len(orders))

    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0])
    def test_per_array_starts_match_separate_calls(self, rng, p):
        # one carried start or None per array; each array's triple is its call alone
        orders = (3, 5, 5, 6, 40)
        xis = [self._rows(self._elements(rng, n, 3)) for n in orders]
        starts = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in orders]
        starts[1] = None
        together = fpzn_norms(xis, p, seed=2, starts=starts)
        for xi, start, solved in zip(xis, starts, together, strict=True):
            [alone] = fpzn_norms([xi], p, seed=2, starts=[start])
            for a, b in zip(solved, alone, strict=True):
                assert a.tobytes() == b.tobytes()
        # a start per array: a list of the wrong length is refused before any ascent
        with pytest.raises(ValueError):
            fpzn_norms(xis, p, starts=starts[:-1])

    @pytest.mark.parametrize("n", [1, 5, 40])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_arrays_out(self, rng, n, p):
        [(lower, upper, witness)] = fpzn_norms([self._rows(self._elements(rng, n, 3))], p)
        assert lower.shape == upper.shape == (3,) and witness.shape == (3, n)
        assert lower.dtype == upper.dtype == float and witness.dtype == complex
        [(lower, upper, witness)] = fpzn_norms([np.empty((0, n))], p)
        assert lower.shape == upper.shape == (0,) and witness.shape == (0, n)

    def test_start_block_keeps_e0_alone(self):
        import lpkit.cyclic as cyclic

        block = cyclic._circulant_starts(6, 32, 3)
        assert cyclic._circulant_starts(6, 32, 3) is block and not block.flags.writeable
        # e_0, then default_starts' DFT and random columns, from the same draws
        full = default_starts(6, 32, 3)
        assert np.array_equal(block, np.concatenate([full[:, :1], full[:, 6:]], axis=1))

    @pytest.mark.parametrize("n", [5, 16, 40])
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_rotated_basis_start_repeats_e0(self, rng, n, p):
        # a circulant commutes with the cyclic shift, and so does Boyd's ascent,
        # whose duality map acts coordinate by coordinate: the ascent from e_j is
        # e_0's rotated by j, which is why fpzn_norms keeps e_0 alone.  At p = 1.2
        # the ascent crawls, so roundoff shifts where it stops by up to TIGHT_TOL
        import lpkit.cyclic as cyclic

        # group j: the circulant's ascent from e_j alone
        fhat = np.fft.fft(random_laurent(rng).samples(n).coefficients())
        matmat, rmatmat, select = cyclic._circulant_matmats(np.tile(fhat[:, None], n))
        values, W = boyd_lower(matmat, rmatmat, np.eye(n, dtype=complex), p, tol=TIGHT_TOL,
                               groups=n, select=select)
        assert values == pytest.approx(values[0], rel=TIGHT_TOL if p == 1.2 else 1e-13)
        for j in range(n):
            rolled = np.roll(W[:, 0], j)
            phase = np.vdot(rolled, W[:, j])
            assert np.abs(W[:, j] - phase / abs(phase) * rolled).max() < 1e-6

    def test_large_order_start_block_memory(self, rng, monkeypatch):
        # fpz_norm's default n_max reaches n = 4096; the start block keeps one basis
        # vector, never an n x n identity (268 MB at this n)
        import tracemalloc

        import lpkit.pnorm as pnorm_mod

        class Built(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Built

        monkeypatch.setattr(pnorm_mod, "boyd_lower", refuse)
        xi = rng.standard_normal((3, 4096)) + 1j * rng.standard_normal((3, 4096))
        tracemalloc.start()
        try:
            with pytest.raises(Built):
                fpzn_norms([xi], 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestEmbedRestrictRotate:
    def test_embed_examples(self):
        assert np.allclose(embed_divisor(CyclicElement(2, [1, -1]), 4).xi, [1, 0, -1, 0])
        assert np.allclose(embed_divisor(CyclicElement(1, [3 - 2j]), 3).xi, [3 - 2j, 0, 0])
        # both norms exactly 1 via the p = 1 closed form
        assert fpzn_norm(CyclicElement(4, [1, 0, -1, 0]), 1).lower == pytest.approx(1.0)
        assert fpzn_norm(CyclicElement(2, [1, -1]), 1).lower == pytest.approx(1.0)

    def test_embed_requires_divisor(self):
        with pytest.raises(ValueError):
            embed_divisor(CyclicElement(2, [1, 1]), 3)

    def test_restrict_examples(self):
        b = CyclicElement(4, [1, 1j, -1, -1j])
        assert np.allclose(restrict(b, 2, 0).xi, [1, -1])
        assert np.allclose(restrict(CyclicElement(4, [1, 2, 3, 4]), 2, 1).xi, [2, 4])
        assert np.allclose(restrict(b, 4, 0).xi, b.xi)

    def test_restrict_errors(self):
        with pytest.raises(ValueError):
            restrict(CyclicElement(4, [1, 1, 1, 1]), 3)
        with pytest.raises(ValueError):
            restrict(CyclicElement(4, [1, 1, 1, 1]), 2, offset=2)

    def test_embedding_isometric_restriction_contractive(self, rng):
        for m in range(2, 13):
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            for d in divisors:
                beta = CyclicElement(m, rng.standard_normal(m) + 1j * rng.standard_normal(m))
                small = CyclicElement(d, rng.standard_normal(d) + 1j * rng.standard_normal(d))
                for p in (1.0, 1.5, 3.0):
                    ns = fpzn_norm(small, p, seed=1)
                    ne = fpzn_norm(embed_divisor(small, m), p, seed=1)
                    assert ne.overlaps(ns, 1e-6), (m, d, p)
                    nb = fpzn_norm(beta, p, seed=1)
                    for off in range(m // d):
                        nr = fpzn_norm(restrict(beta, d, off), p, seed=1)
                        assert nr.lower <= nb.upper + 1e-6, (m, d, off, p)

    def test_rotate_examples(self):
        assert np.allclose(rotate(CyclicElement(3, [1, 2, 3]), 1).xi, [3, 1, 2])
        x = CyclicElement(4, [1, 1j, -2, 0.5])
        assert np.allclose(rotate(x, 0).xi, x.xi)
        assert np.allclose(rotate(x, 4).xi, x.xi)

    def test_rotation_invariance_exact_paths(self, rng):
        for k in range(20):
            n = int(rng.integers(2, 12))
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = CyclicElement(n, xi)
            r = rotate(x, int(rng.integers(0, n)))
            for p in (1.0, 2.0):
                assert abs(fpzn_norm(x, p).lower - fpzn_norm(r, p).lower) <= 1e-8

    def test_rotation_invariance_brackets_generic_p(self, rng):
        for k in range(5):
            n = int(rng.integers(2, 8))
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = CyclicElement(n, xi)
            r = rotate(x, int(rng.integers(0, n)))
            assert fpzn_norm(x, 3, seed=k).overlaps(fpzn_norm(r, 3, seed=k), 1e-9)


class TestClassifyIsometry:
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_excess_is_a_python_float(self, p):
        res = classify_isometry(CyclicElement(3, [1.0, 2.0, 0.5j]), p)
        assert res.kind == "not-isometry" and type(res.excess) is float

    def test_canonical_family_recognized(self):
        for n in range(1, 7):
            for k in range(n):
                for z_idx in range(12):
                    zeta = np.exp(2j * np.pi * (z_idx / 12 + 0.013))
                    xi = zeta * np.exp(2j * np.pi * k * np.arange(n) / n)
                    for p in (1.0, 3.0):
                        res = classify_isometry(CyclicElement(n, xi), p)
                        assert res.kind == "isometry"
                        assert res.k == k
                        assert res.zeta == pytest.approx(zeta, abs=1e-9)

    def test_spec_example(self):
        xi = np.exp(1j * np.pi / 7) * np.array([1, 1j, -1, -1j])
        res = classify_isometry(CyclicElement(4, xi), 1)
        assert res.kind == "isometry" and res.k == 1
        assert res.zeta == pytest.approx(np.exp(1j * np.pi / 7), abs=1e-12)

    def test_one_i_not_isometry(self):
        res = classify_isometry(CyclicElement(2, [1, 1j]), 1)
        assert res.kind == "not-isometry"
        assert res.excess == pytest.approx(math.sqrt(2) - 1, abs=1e-9)

    def test_random_unimodular_not_canonical(self, rng):
        for k in range(20):
            n = int(rng.integers(2, 7))
            xi = random_unimodular(rng, n)
            # exclude accidental canonical tuples (measure zero anyway)
            for p in (1.0, 3.0):
                res = classify_isometry(CyclicElement(n, xi), p, seed=k)
                assert res.kind == "not-isometry"
                assert res.excess > 0.0

    def test_p2_all_unimodular(self):
        res = classify_isometry(CyclicElement(3, [1, 1j, -1]), 2)
        assert res.kind == "all-unimodular"

    @pytest.mark.parametrize("xi,kind,excess", [
        ([1, 1j, -1, (1 + 1e-10) * np.exp(0.3j)], "all-unimodular", None),
        ([2, 0.5j, 1], "not-isometry", 1.0),  # sup 2 and 1/min 2 tie
        ([0.25, -1], "not-isometry", 3.0),  # 1/min wins
        ([1.5, 1j, -1], "not-isometry", 0.5),  # sup wins
    ])
    def test_p2_excess_is_sup_or_inverse_sup(self, xi, kind, excess):
        res = classify_isometry(CyclicElement(len(xi), xi), 2)
        assert res.kind == kind and res.excess == excess
        assert res.zeta is None and res.k is None

    def test_noninvertible_rejected(self):
        with pytest.raises(ValueError):
            classify_isometry(CyclicElement(2, [1, 0]), 1)


class TestGapWitness:
    @pytest.mark.parametrize("n,d", [(2, 1), (4, 2), (6, 3), (6, 2)])
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_certified_margin(self, n, d, p):
        alpha, margin = gap_witness(n, d, p, seed=0)
        assert margin >= 0.05
        # recomputable from scratch
        assert gap_margin(alpha, d, p) == pytest.approx(margin, rel=1e-9)

    @pytest.mark.parametrize("n,d", [(3, 1), (4, 2), (6, 2), (6, 3), (8, 2)])
    def test_margin_from_each_restriction(self, rng, n, d):
        # gap_witness calls gap_margin too, so the check above would not see a
        # batched restriction taken in the wrong orientation; this one solves
        # each restrict(alpha, d, b) alone
        alpha = CyclicElement(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        want = fpzn_norm(alpha, 3.0).lower - max(
            fpzn_norm(restrict(alpha, d, b), 3.0).upper for b in range(n // d))
        assert gap_margin(alpha, d, 3.0) == want

    def test_two_one_case_value(self):
        alpha, margin = gap_witness(2, 1, 1, seed=0)
        # restrictions are single unimodular values, so the gap is norm - 1;
        # sqrt(2) - 1 is the extremal value at n = 2
        assert margin == pytest.approx(math.sqrt(2) - 1, abs=1e-9)

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            gap_witness(2, 1, 2)

    def test_bad_divisor_rejected(self):
        with pytest.raises(ValueError):
            gap_witness(4, 3, 1)
        with pytest.raises(ValueError):
            gap_witness(4, 4, 1)


class TestJson:
    def test_round_trip(self, rng):
        x = CyclicElement(3, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        y = CyclicElement.from_json(x.to_json())
        assert y.n == x.n and np.allclose(y.xi, x.xi)

    def test_inverse(self):
        x = CyclicElement(2, [2.0, 1j])
        assert np.allclose(x.inverse().xi, [0.5, -1j])
        with pytest.raises(ValueError):
            CyclicElement(2, [1, 0]).inverse()
