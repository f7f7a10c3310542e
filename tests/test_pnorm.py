import logging
import math

import numpy as np
import pytest

from lpkit.cyclic import circulant_of
from lpkit.pnorm import (
    NormEstimate,
    as_exponent,
    boyd_lower,
    default_starts,
    grouped_opnorm,
    opnorm,
    opnorm_oracle,
    pnorm,
    section_max,
)

from conftest import brackets, patch_ascents, random_laurent


class TestAsExponent:
    def test_returns_float(self):
        for v in (1, 2, np.int64(3), np.float32(1.5), np.float64(7.5)):
            p = as_exponent(v)
            assert type(p) is float and p == float(v)

    def test_rejects_bad_values(self):
        for v in (0.5, -1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                as_exponent(v)


class TestDefaultStarts:
    def test_shared_and_read_only(self):
        block = default_starts(6, 32, 3)
        assert default_starts(6, 32, 3) is block
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 2.0
        assert np.array_equal(block[:, :6], np.eye(6))
        other = default_starts(6, 32, 4)
        assert other is not block and not np.array_equal(other, block)


class TestOpnormExactPaths:
    @pytest.mark.parametrize("p", [1.0, 2.0, 1.5])
    def test_python_floats(self, rng, p):
        est = opnorm(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), p)
        assert type(est.lower) is float and type(est.upper) is float

    def test_identity_any_p(self):
        est = opnorm(np.eye(4), 1.5, seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-9)
        assert est.upper == pytest.approx(1.0, abs=1e-9)

    def test_column_sum_p1(self):
        est = opnorm(np.array([[1, 1], [0, 1]]), 1)
        assert est.lower == 2.0 and est.upper == 2.0
        assert est.method == "exact-p1"
        # witness is the basis vector of the maximizing column
        assert np.allclose(est.witness, [0, 1])

    def test_p2_is_largest_singular_value(self, rng):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        est = opnorm(A, 2)
        assert est.method == "exact-p2"
        assert est.lower == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)
        assert est.upper - est.lower <= 1e-10 * max(1.0, est.lower)

    def test_half_ones_p3_squeeze(self):
        # interpolation of ||.||_2 = ||.||_inf = 1 forces upper 1; the
        # witness (1,1)/2^(1/3) achieves ratio 1 from below
        A = 0.5 * np.ones((2, 2))
        w = np.ones(2) / 2 ** (1 / 3)
        assert pnorm(A @ w, 3) / pnorm(w, 3) == pytest.approx(1.0, abs=1e-14)
        est = opnorm(A, 3, seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-10)
        assert est.upper == pytest.approx(1.0, abs=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            opnorm(np.ones((2, 3)), 1.5)
        with pytest.raises(ValueError):
            opnorm(np.eye(2), 0.9)
        with pytest.raises(ValueError):
            opnorm(np.array([[np.nan, 0], [0, 1]]), 1)


class TestWitnessContract:
    @pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 2.6, 4.0])
    def test_witness_achieves_lower(self, rng, p):
        for k in range(5):
            n = int(rng.integers(2, 8))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            est = opnorm(A, p, seed=k)
            assert pnorm(est.witness, p) == pytest.approx(1.0, abs=1e-10)
            ratio = pnorm(A @ est.witness, p) / pnorm(est.witness, p)
            assert ratio == pytest.approx(est.lower, rel=1e-12)

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            NormEstimate(2.0, 1.0, np.ones(1, dtype=complex), "oracle")


class TestOracle:
    def test_complex_permutation_is_isometric(self):
        A = np.array([[0, 1j], [np.exp(0.3j), 0]])
        for p in (1.0, 1.7, 3.5):
            assert opnorm_oracle(A, p, samples=8, seed=0) == pytest.approx(1.0, abs=1e-9)

    def test_half_ones_p1(self):
        A = 0.5 * np.ones((2, 2))
        assert opnorm_oracle(A, 1, samples=64, seed=1) == pytest.approx(1.0, abs=1e-6)

    def test_rank_one_p2(self):
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert opnorm_oracle(A, 2, samples=16, seed=2) == pytest.approx(2.0, abs=1e-8)

    def test_oracle_below_primary_lower(self, rng):
        for k in range(8):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p = float(rng.choice([1.3, 1.8, 2.6, 4.0]))
            est = opnorm(A, p, seed=k)
            assert opnorm_oracle(A, p, samples=16, seed=k) <= est.lower + 1e-6


class TestProperties:
    def test_scaling(self, rng):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        base = opnorm(A, 1.7, seed=3)
        scaled = opnorm((2.5 - 1.5j) * A, 1.7, seed=3)
        assert scaled.lower == pytest.approx(abs(2.5 - 1.5j) * base.lower, rel=1e-10)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150])
    @pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 3.0, 50.0])
    def test_scale_invariance(self, rng, scale, p):
        # the ascent's zero thresholds are relative to each column's max, so
        # no entry of a tiny or huge operator counts as zero for its scale
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        A[:, 2] = 0.0
        base = opnorm(A, p, seed=1).lower
        assert opnorm(scale * A, p, seed=1).lower / scale == pytest.approx(base, rel=1e-12)

    def test_transpose_duality(self, rng):
        for k in range(10):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p = float(rng.choice([1.3, 1.6, 2.6, 5.0]))
            est = opnorm(A, p, seed=k)
            dual = opnorm(A.T, p / (p - 1.0), seed=k)
            assert est.overlaps(dual, 1e-9)

    def test_submultiplicative_upper(self, rng):
        for k in range(5):
            A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            for p in (1.0, 1.4, 3.0):
                ab = opnorm(A @ B, p, seed=k)
                ea, eb = opnorm(A, p, seed=k), opnorm(B, p, seed=k)
                assert ab.upper <= ea.upper * eb.upper + 1e-8

    def test_p2_path_matches_generic_nearby(self, rng):
        for k in range(4):
            A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            exact = opnorm(A, 2.0)
            for p in (2.0 - 1e-9, 2.0 + 1e-9):
                near = opnorm(A, p, seed=k)
                assert abs(near.lower - exact.lower) <= 1e-4

    def test_determinism(self, rng):
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        e1 = opnorm(A, 2.7, seed=42)
        e2 = opnorm(A, 2.7, seed=42)
        assert e1.lower == e2.lower and e1.upper == e2.upper
        assert np.array_equal(e1.witness, e2.witness)
        assert opnorm_oracle(A, 2.7, samples=8, seed=5) == opnorm_oracle(A, 2.7, samples=8, seed=5)


def _textbook_boyd(A, starts, p, iters):
    """Best value of Boyd's ascent as first written: pnorm, the duality map
    spelled out, W renormalized, every column iterated, no stop rule."""
    q = p / (p - 1.0)

    def psi(v, t):
        a = np.abs(v)
        return a ** (t - 1.0) * np.where(a > 0.0, v / np.where(a > 0.0, a, 1.0), 0.0)

    X = starts / pnorm(starts, p, axis=0)
    best = 0.0
    for _ in range(iters):
        Y = A @ X
        g = pnorm(Y, p, axis=0)
        best = max(best, float(g.max()))
        Z = A.conj().T @ psi(Y / g, p)
        W = psi(Z / pnorm(Z, q, axis=0), q)
        X = W / pnorm(W, p, axis=0)
    return best


class TestTextbookBoyd:
    """boyd_lower's fused half-steps track the ascent as first written."""

    @staticmethod
    def _check(A, p, rng, monkeypatch):
        import lpkit.pnorm as pnorm_mod

        # random starts only: basis and DFT starts of a circulant sit on unstable
        # fixed points, which the textbook loop leaves on roundoff alone
        n = A.shape[0]
        starts = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        for k in (1, 2, 5, 20):
            monkeypatch.setattr(pnorm_mod, "_MAX_ITER", k)
            (value,), _ = boyd_lower(lambda X: A @ X, lambda X: A.conj().T @ X, starts, p,
                                     tol=0.0)
            assert value == pytest.approx(_textbook_boyd(A, starts, p, k), rel=1e-12)

    def test_arrays_out(self, rng):
        # one value per group and a unit p-norm witness column per group that reproduces it
        A = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in range(3)]
        group = [0, 1, 2]

        def select(g):
            group[:] = np.asarray(g)

        def apply(mats, X):
            return np.stack([mats[g] @ X[:, j] for j, g in enumerate(group)], axis=1)

        starts = np.tile(default_starts(5, 32, 0), 3)
        values, W = boyd_lower(lambda X: apply(A, X), lambda X: apply([a.conj().T for a in A], X),
                               starts, 1.5, groups=3, select=select)
        assert values.shape == (3,) and W.shape == (5, 3)
        for a, v, w in zip(A, values, W.T):
            assert pnorm(w, 1.5) == pytest.approx(1.0, rel=1e-12)
            assert pnorm(a @ w, 1.5) == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
    def test_dense(self, rng, monkeypatch, p):
        for _ in range(3):
            self._check(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), p, rng,
                        monkeypatch)

    @pytest.mark.parametrize("n", [5, 16, 96])
    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
    def test_circulant(self, rng, monkeypatch, n, p):
        self._check(circulant_of(random_laurent(rng, span=5).samples(n)), p, rng, monkeypatch)


class TestSectionMax:
    @staticmethod
    def counted(g):
        calls = []

        def f(x):
            calls.append(x)
            return g(x)

        return f, calls

    def test_scalar(self):
        g = lambda t: -(t - 0.3) ** 2
        f, calls = self.counted(g)
        x, v = section_max(f, 0.5, 0.5, 10)
        assert len(calls) == 10 and all(c.shape == (8,) for c in calls)
        assert x == pytest.approx(0.3, abs=(2 / 9) ** 10)
        assert v == g(x)

    def test_columnwise(self):
        peaks = np.array([-1.0, 0.25, 2.0])
        f, calls = self.counted(lambda t: np.cos(t - peaks))
        x, v = section_max(f, peaks - 0.2, 0.8, 12)
        assert len(calls) == 12 and all(c.shape == (8, 3) for c in calls)
        assert np.allclose(x, peaks, atol=1e-8)
        assert np.array_equal(v, np.cos(x - peaks))

    def test_returns_best_evaluated(self):
        # a spike at the first step's first point 1/9: every later step looks
        # around it and finds only lower values, yet the spike is returned
        g = lambda t: np.where(np.abs(t - 1 / 9) < 1e-12, 2.0, -np.abs(t - 0.9))
        f, calls = self.counted(g)
        x, v = section_max(f, 0.5, 0.5, 6)
        assert x == calls[0][0] and v == 2.0
        values = np.concatenate([g(c) for c in calls])
        assert v == values.max()
        # the windows shrink by 2/9 around each step's best point
        for prev, cur in zip(calls, calls[1:]):
            h = prev[1] - prev[0]
            best = prev[np.argmax(g(prev))]
            assert best - h <= cur[0] and cur[-1] <= best + h

    def test_ties_keep_left(self):
        f, calls = self.counted(lambda t: np.zeros_like(t))
        x, v = section_max(f, np.array([0.0, 1.0]), 1.0, 3)
        assert np.array_equal(x, calls[0][0]) and np.array_equal(v, [0.0, 0.0])
        # every step keeps the window around its leftmost point
        for prev, cur in zip(calls, calls[1:]):
            assert np.allclose((cur[0] + cur[-1]) / 2, prev[0], atol=1e-15)


class TestStallRule:
    @staticmethod
    def _counted_fpzn(monkeypatch, x, seed=0):
        """fpzn_norm(x, 1.5) with the ascent's matmat calls counted."""
        import lpkit.cyclic as cyclic
        import lpkit.pnorm as pnorm_mod

        calls = [0]
        real = pnorm_mod.boyd_lower

        def counting_boyd(matmat, rmatmat, starts, p, **kwargs):
            def counted(X):
                calls[0] += 1
                return matmat(X)

            return real(counted, rmatmat, starts, p, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(pnorm_mod, "boyd_lower", counting_boyd)
            est = cyclic.fpzn_norm(x, 1.5, seed=seed)
        return est.lower, calls[0]

    def test_stall_stop_saves_iterations_not_value(self, rng, monkeypatch):
        import lpkit.pnorm as pnorm_mod

        # here the eigenvector starts hold the best value for the first ~90
        # iterations until the basis columns climb past it; a window on the
        # best value alone would stop at iteration 51, 7.8e-4 short
        x = random_laurent(rng, span=5).samples(96)
        lower, calls = self._counted_fpzn(monkeypatch, x)
        monkeypatch.setattr(pnorm_mod, "_STALL_ITERS", 10_000)
        full_lower, full_calls = self._counted_fpzn(monkeypatch, x)
        assert calls < full_calls / 2
        assert lower == pytest.approx(full_lower, rel=1e-9)

    def test_equal_seeds_equal_call_counts(self, rng, monkeypatch):
        x = random_laurent(rng, span=5).samples(96)
        first = self._counted_fpzn(monkeypatch, x, seed=3)
        second = self._counted_fpzn(monkeypatch, x, seed=3)
        assert first == second

    @staticmethod
    def _three_iterations(A, monkeypatch):
        import lpkit.pnorm as pnorm_mod

        n = A.shape[0]
        monkeypatch.setattr(pnorm_mod, "_MAX_ITER", 3)
        boyd_lower(lambda X: A @ X, lambda X: A.conj().T @ X, default_starts(n, 32, 0), 1.5)

    def test_stop_reason_logged(self, rng, caplog, monkeypatch):
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        with caplog.at_level(logging.DEBUG, logger="lpkit"):
            self._three_iterations(A, monkeypatch)
        reasons = [r.getMessage() for r in caplog.records if r.name.startswith("lpkit")]
        assert len(reasons) == 1
        assert "(max_iter) after 3 iterations" in reasons[0]

    def test_silent_by_default(self, rng, capsys, monkeypatch):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._three_iterations(A, monkeypatch)
        assert capsys.readouterr() == ("", "")


class TestCompaction:
    """Settled columns leave boyd_lower's working block without a trace."""

    @staticmethod
    def _keep_settled(patch):
        import lpkit.pnorm as pnorm_mod

        # the narrowing step as a no-op: settled columns stay in the block,
        # where they only repeat their values
        patch.setattr(pnorm_mod, "_narrow", lambda running, settled: np.flatnonzero(running))

    @staticmethod
    def _solve(monkeypatch, xs, p, keep_settled, seed=2):
        """fpzn_norms of the tuples xs, dense or FFT by their order, and the widths
        of the blocks its matmat calls take."""
        import lpkit.cyclic as cyclic

        widths = []

        def wrap(real):
            def counting_boyd(matmat, rmatmat, starts, p, **kwargs):
                def counted(X):
                    widths.append(X.shape[1])
                    return matmat(X)

                return real(counted, rmatmat, starts, p, **kwargs)
            return counting_boyd

        with monkeypatch.context() as patch:
            patch_ascents(patch, wrap)
            if keep_settled:
                TestCompaction._keep_settled(patch)
            [solved] = cyclic.fpzn_norms([np.array([x.xi for x in xs])], p, seed=seed)
        return brackets(solved), widths

    @staticmethod
    def _assert_same(got, want):
        for a, b in zip(got, want, strict=True):
            assert a.lower == b.lower and a.upper == b.upper
            assert np.array_equal(a.witness, b.witness)

    @pytest.mark.parametrize("n", [1, 5, 8, 16, 40, 96])
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_brackets_and_witnesses_unchanged(self, rng, monkeypatch, n, p):
        xs = [random_laurent(rng, span=5).samples(n) for _ in range(7)]
        for batch in (xs[:1], xs):
            got, _ = self._solve(monkeypatch, batch, p, keep_settled=False)
            want, _ = self._solve(monkeypatch, batch, p, keep_settled=True)
            self._assert_same(got, want)

    @pytest.mark.parametrize("draw, n, p", [(4, 16, 1.25), (8, 12, 1.5), (13, 48, 1.5)])
    def test_lone_column_keeps_its_roundoff(self, monkeypatch, draw, n, p):
        # these ascents end on one working column, on dense products (orders 12
        # and 16) or FFT ones (order 48); summed alone, as a one-column block, it
        # would end 1 ulp away from the kept-settled run
        rng = np.random.default_rng(draw)
        xs = [random_laurent(rng, span=int(rng.integers(2, 9))).samples(n)]
        got, widths = self._solve(monkeypatch, xs, p, keep_settled=False, seed=1)
        want, _ = self._solve(monkeypatch, xs, p, keep_settled=True, seed=1)
        assert min(widths[:-1]) == 2  # the ascent reached the floor (the last call is the witness)
        self._assert_same(got, want)

    def test_fewer_matmat_columns(self, rng, monkeypatch):
        # a dense order and an FFT order
        for n in (12, 96):
            xs = [random_laurent(rng, span=5).samples(n)]
            (got,), narrowed = self._solve(monkeypatch, xs, 1.5, keep_settled=False)
            (want,), kept = self._solve(monkeypatch, xs, 1.5, keep_settled=True)
            assert got.lower == want.lower
            assert sum(narrowed) <= 0.75 * sum(kept)


class TestStackedLower:
    @staticmethod
    def _stacks(rng, shapes):
        return [rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
                for k, n in shapes]

    def test_pads_only_up_to_cap(self, rng, monkeypatch):
        # the rows of stacks of order up to PAD_ORDER share one ascent padded to the
        # largest of them; a larger stack runs alone and unpadded at the same tol, on
        # its dense stack or on products(i), when it is never built
        import lpkit.pnorm as pnorm_mod

        shapes = [(1, 3), (2, pnorm_mod.PAD_ORDER + 4), (2, 5)]
        stacks = self._stacks(rng, shapes)
        sizes, made = [], []
        real = pnorm_mod.boyd_lower

        def counting(matmat, rmatmat, starts, p, **kwargs):
            sizes.append((starts.shape, kwargs["groups"], kwargs["tol"]))
            return real(matmat, rmatmat, starts, p, **kwargs)

        def products(i):
            made.append(i)
            return lambda rows: pnorm_mod._stacked_matmats(stacks[i][rows])

        def solve(**kwargs):
            built = []
            found = pnorm_mod.stacked_lower(shapes, lambda i: built.append(i) or stacks[i],
                                            lambda i: default_starts(shapes[i][1], 32, 0), 3.0,
                                            tol=pnorm_mod.TIGHT_TOL, **kwargs)
            return found, built

        monkeypatch.setattr(pnorm_mod, "boyd_lower", counting)
        found, built = solve()
        assert built == [1, 0, 2] and made == []
        # default_starts gives 44 columns at order 20 and 32 at orders 3 and 5
        assert sizes == [((20, 2 * 44), 2, pnorm_mod.TIGHT_TOL),
                         ((5, 3 * 32), 3, pnorm_mod.TIGHT_TOL)]
        sizes.clear()
        got, built = solve(products=products)
        assert built == [0, 2] and made == [1]
        assert sizes == [((20, 2 * 44), 2, pnorm_mod.TIGHT_TOL),
                         ((5, 3 * 32), 3, pnorm_mod.TIGHT_TOL)]
        for (values, W), (got_values, got_W) in zip(found, got, strict=True):
            assert got_values.tobytes() == values.tobytes() and got_W.tobytes() == W.tobytes()
        monkeypatch.setattr(pnorm_mod, "boyd_lower", real)
        for i in range(3):
            values, W = found[i]
            assert values.shape == (shapes[i][0],) and W.shape == shapes[i]
            for A, value, w in zip(stacks[i], values, W, strict=True):
                assert pnorm(A @ w, 3.0) / pnorm(w, 3.0) == pytest.approx(value, rel=1e-12)
                assert value >= opnorm(A, 3.0, seed=0).lower * (1.0 - 1e-9)

    def test_order_above_cap_changes_no_bit(self, rng):
        # grouped_opnorm's order-20 matrix runs alone, the order-3 one padded: a
        # call of both gives each the bits it gets in a call of its own
        A = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for p in (1.5, 3.0):
            both = grouped_opnorm([A, B], p)
            for got, [want] in zip(both, (grouped_opnorm([A], p), grouped_opnorm([B], p)),
                                   strict=True):
                assert (got.lower, got.upper, got.method) == (want.lower, want.upper, want.method)
                assert got.witness.tobytes() == want.witness.tobytes()

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_matmul_column_groups(self, rng, n):
        # the batched-matmul assumption behind _stacked_matmats' bit-for-bit promise:
        # with the column count a multiple of _GEMM_COLUMNS, a column's bits depend
        # on its matrix and its own entries alone, not on the other columns, the
        # other matrices or zero rows and columns padded on.  A BLAS whose kernel
        # groups columns otherwise fails here, not in a bracket's last bit
        import lpkit.pnorm as pnorm_mod

        group = pnorm_mod._GEMM_COLUMNS
        M = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        X = rng.standard_normal((3, n, 3 * group)) + 1j * rng.standard_normal((3, n, 3 * group))
        full = np.matmul(M, X)
        for width in (group, 2 * group):
            narrow = np.matmul(M[1:], np.ascontiguousarray(X[1:, :, :width]))
            assert narrow.tobytes() == full[1:, :, :width].tobytes(), "column groups"
        size = n + 5
        padded_M = np.zeros((3, size, size), dtype=complex)
        padded_M[:, :n, :n] = M
        padded_X = np.zeros((3, size, 3 * group), dtype=complex)
        padded_X[:, :n] = X
        padded = np.matmul(padded_M, padded_X)[:, :n]
        assert padded.tobytes() == full.tobytes(), "zero padding"

    def test_chunks_split_rows_by_stack(self, rng, monkeypatch):
        # blocks of one row each: every stack's rows straddle block boundaries, and
        # row r of stack i gets the bits of that row solved in one block of all
        # rows and solved as a stack of its own
        import lpkit.pnorm as pnorm_mod

        def solve(shapes, stack):
            return pnorm_mod.stacked_lower(shapes, stack, lambda i: default_starts(5, 32, 1),
                                           1.5, tol=pnorm_mod.TIGHT_TOL)

        shapes = [(3, 5), (4, 5), (2, 5)]
        stacks = self._stacks(rng, shapes)
        groups = []
        real = pnorm_mod.boyd_lower

        def counting(*args, **kwargs):
            groups.append(kwargs["groups"])
            return real(*args, **kwargs)

        monkeypatch.setattr(pnorm_mod, "boyd_lower", counting)
        whole = solve(shapes, stacks.__getitem__)
        # every start block here has 32 columns (see default_starts)
        monkeypatch.setattr(pnorm_mod, "_CHUNK_COLUMNS", 32)
        chunked = solve(shapes, stacks.__getitem__)
        assert groups == [9] + [1] * 9
        for stack, (values, W), (got_values, got_W) in zip(stacks, whole, chunked, strict=True):
            assert got_values.shape == values.shape and got_W.shape == W.shape
            assert got_values.tobytes() == values.tobytes() and got_W.tobytes() == W.tobytes()
            for row, got_value, got_w in zip(stack, got_values, got_W):
                [(value, w)] = solve([(1, 5)], lambda i: row[None])
                assert got_value.tobytes() == value.tobytes() and got_w.tobytes() == w.tobytes()
