import cmath
import math

import numpy as np
import pytest

import lpkit.cyclic as cyclic
import lpkit.zline as zline
from lpkit.zline import (
    LaurentPolynomial,
    cyclic_lower,
    fpz_norm,
    fpz_upper,
    norm_l1,
    sup_exact,
)

from conftest import brackets, patch_ascents, random_laurent


def poly(*pairs):
    return LaurentPolynomial(tuple(pairs))


class TestLaurentPolynomial:
    def test_zero_coefficients_dropped(self):
        f = poly((0, 1.0), (3, 0.0), (5, 2.0), (5, -2.0))
        assert f.terms == ((0, 1.0 + 0.0j),)

    def test_span(self):
        assert poly((-2, 1), (3, 1)).span == 5
        assert poly((4, 1)).span == 0

    def test_evaluate(self):
        f = poly((0, 1), (1, 1))
        assert f(1.0) == pytest.approx(2.0)
        assert f(-1.0) == pytest.approx(0.0)
        z = np.exp(2j * np.pi * np.arange(4) / 4)
        assert np.allclose(f(z), 1 + z)

    def test_reversed(self):
        f = poly((-1, 2j), (2, 1.0))
        assert f.reversed().terms == ((-2, 1.0 + 0.0j), (1, 2j))

    def test_json_round_trip(self, rng):
        f = random_laurent(rng)
        g = LaurentPolynomial.from_json(f.to_json())
        assert g.terms == f.terms


class TestL1AndSup:
    def test_l1_examples(self):
        assert norm_l1(poly((0, 1), (1, 1))) == 2.0
        assert norm_l1(poly((7, 1))) == 1.0
        assert norm_l1(poly((0, 3), (2, -4j))) == 7.0

    def test_sup_examples(self):
        assert sup_exact(poly((0, 1), (1, 1)))[0] == pytest.approx(2.0, abs=1e-9)
        assert sup_exact(poly((5, 1)))[0] == pytest.approx(1.0, abs=1e-12)
        assert sup_exact(poly((0, 1), (1, -1)))[0] == pytest.approx(2.0, abs=1e-9)

    def test_sup_exact_against_dense_grid(self, rng):
        for _ in range(6):
            f = random_laurent(rng)
            val, arg = sup_exact(f)
            theta = 2 * np.pi * np.arange(200_001) / 200_001
            brute = float(np.max(np.abs(f(np.exp(1j * theta)))))
            assert val >= brute - 1e-9
            assert val == pytest.approx(brute, rel=1e-6)
            assert abs(f(arg)) == pytest.approx(val, rel=1e-12)


class TestCyclicLower:
    def test_examples(self):
        f = poly((0, 1), (1, 1))
        assert cyclic_lower(f, 2, 1) == pytest.approx(2.0, rel=1e-12)
        assert cyclic_lower(f, 1, 1) == pytest.approx(2.0, rel=1e-12)
        assert cyclic_lower(poly((1, 1)), 5, 2.4) == pytest.approx(1.0, abs=1e-9)

    def test_divisibility_monotone(self, rng):
        for _ in range(5):
            f = random_laurent(rng)
            chain = [2, 4, 8, 16, 32, 64]
            vals = [cyclic_lower(f, n, 1) for n in chain]
            assert all(vals[i] <= vals[i + 1] + 1e-8 for i in range(len(vals) - 1))

    def test_divisibility_monotone_generic_p(self, rng):
        for _ in range(3):
            f = random_laurent(rng, span=4)
            for p in (1.5, 2.7):
                vals = [cyclic_lower(f, n, p) for n in (2, 4, 8, 16)]
                assert all(vals[i] <= vals[i + 1] + 1e-8 for i in range(len(vals) - 1))

    def test_p1_reaches_l1(self, rng):
        for _ in range(5):
            f = random_laurent(rng, span=5)
            assert cyclic_lower(f, 512, 1) >= norm_l1(f) - 1e-3


class TestFpzNorm:
    def test_one_minus_x_p15(self):
        # squeeze: sup bound 2 from the n = 2 sample, interpolation upper
        # 2^(1/3) * 2^(2/3) = 2
        est = fpz_norm(poly((0, 1), (1, -1)), 1.5, n_max=8)
        assert est.lower == pytest.approx(2.0, abs=1e-6)
        assert est.upper == pytest.approx(2.0, abs=1e-6)

    def test_monomials_norm_one(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            est = fpz_norm(poly((3, 1)), p, n_max=8)
            assert est.lower == pytest.approx(1.0, abs=1e-9)
            assert est.upper == pytest.approx(1.0, abs=1e-9)

    def test_l1_identity_at_p1(self):
        est = fpz_norm(poly((0, 1), (1, 1)), 1)
        assert est.lower == 2.0 and est.upper == 2.0
        assert est.method == "exact-p1"

    def test_exact_at_p2(self, rng):
        f = random_laurent(rng)
        est = fpz_norm(f, 2)
        assert est.method == "exact-p2"
        assert est.upper - est.lower <= 1e-10 * max(1.0, est.lower)
        assert est.lower == pytest.approx(sup_exact(f)[0], rel=1e-12)

    def test_sandwich(self, rng):
        for _ in range(4):
            f = random_laurent(rng)
            for p in (1.5, 3.0):
                est = fpz_norm(f, p, n_max=32)
                assert sup_exact(f)[0] - 1e-6 <= est.lower
                assert est.lower <= est.upper <= norm_l1(f) + 1e-12

    def test_duality(self, rng):
        for _ in range(3):
            f = random_laurent(rng, span=3)
            for p in (1.5, 3.0):
                est = fpz_norm(f, p, n_max=32)
                dual = fpz_norm(f.reversed(), p / (p - 1.0), n_max=32)
                assert est.overlaps(dual, 1e-9)

    def test_early_stop_keeps_bracket_valid(self, rng):
        f = random_laurent(rng, span=2)
        wide = fpz_norm(f, 1.5, tol=10.0, n_max=4)
        tight = fpz_norm(f, 1.5, tol=1e-9, n_max=64)
        assert wide.lower <= tight.lower + 1e-9
        assert tight.upper <= wide.upper + 1e-9

    @pytest.mark.parametrize("tol, n_max", [*((tol, 8) for tol in (0.0, math.nan, math.inf, -1.0)),
                                            (1e-6, 0), (1e-6, -3)])
    def test_bad_tol(self, tol, n_max, monkeypatch):
        message = "n_max must be >= 1" if n_max < 1 else "tol must be finite and positive"

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking its arguments")

        monkeypatch.setattr(zline, "fpzn_norms", no_solve)
        monkeypatch.setattr(zline, "sup_exact", no_solve)
        with pytest.raises(ValueError, match=message):
            fpz_norm(poly((0, 1), (3, 0.5j)), 1.5, tol=tol, n_max=n_max)

    def test_n_max_cap(self, monkeypatch):
        # n_max above 16384 is refused before any ascent; 16384 itself is taken
        import lpkit.pnorm as pnorm_mod

        def refuse(*args, **kwargs):
            raise AssertionError("solved before checking n_max")

        monkeypatch.setattr(pnorm_mod, "boyd_lower", refuse)
        f = poly((0, 1), (1, 0.5), (3, 0.5j))  # l1 2 > sup 1.949: no bracket closes at n = 1
        for n_max in (16385, 10**9):
            with pytest.raises(ValueError, match="n_max must be at most 16384"):
                fpz_norm(f, 1.5, n_max=n_max)
        with pytest.raises(AssertionError, match="solved before checking n_max"):
            fpz_norm(f, 1.5, n_max=16384)

    def test_upper_is_fpz_upper(self, rng):
        for f in [random_laurent(rng, span=s) for s in (1, 3, 6)] + [poly()]:
            for p in (1.0, 1.5, 2.0, 3.0):
                est = fpz_norm(f, p, n_max=4)
                # fpz_norm still lifts an upper bound that roundoff left below
                # its lower bound (1 ulp on the span-1 draw here)
                assert est.upper == max(fpz_upper(f, p), est.lower)
        assert fpz_upper(poly(), 1.5) == 0.0

    def test_one_sup_and_no_p1_solve(self, rng, monkeypatch):
        # the sup and its peak come from one sup_exact call; p = 1 needs
        # neither the sup nor a tuple solve for its witness
        counts = {"sup_exact": 0, "fpzn_norms": 0}

        def counted(name, fn):
            def inner(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return inner

        monkeypatch.setattr(zline, "sup_exact", counted("sup_exact", zline.sup_exact))
        solve = counted("fpzn_norms", cyclic.fpzn_norms)
        monkeypatch.setattr(zline, "fpzn_norms", solve)
        monkeypatch.setattr(cyclic, "fpzn_norms", solve)
        f = random_laurent(rng, span=3)
        for p, sups, solves in ((1.0, 0, 0), (2.0, 1, 1), (1.5, 1, None), (3.0, 1, None)):
            counts.update(sup_exact=0, fpzn_norms=0)
            est = fpz_norm(f, p, n_max=4)
            assert counts["sup_exact"] == sups
            assert solves is None or counts["fpzn_norms"] == solves
        w = fpz_norm(f, 1.0).witness
        assert w.shape == (f.span + 1,) and np.array_equal(w, np.eye(f.span + 1)[0])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_fpz_norm_python_floats(rng, p):
    for f in (random_laurent(rng, span=3), poly()):
        est = fpz_norm(f, p, n_max=8)
        assert type(est.lower) is float and type(est.upper) is float


class TestIncumbent:
    """fpz_norm's ascents stop once they cannot raise the lower bound it holds."""

    @staticmethod
    def _solve(monkeypatch, f, with_incumbent):
        """fpz_norm(f, 1.5, n_max=96) and the columns its ascents multiply by."""
        cols = [0]
        real_norms = zline.fpzn_norms

        def wrap(real_boyd):
            def counting_boyd(matmat, rmatmat, starts, p, **kwargs):
                def counted(X):
                    cols[0] += X.shape[1]
                    return matmat(X)

                return real_boyd(counted, rmatmat, starts, p, **kwargs)
            return counting_boyd

        with monkeypatch.context() as patch:
            patch_ascents(patch, wrap)
            if not with_incumbent:
                patch.setattr(zline, "fpzn_norms",
                              lambda xs, p, **kw: real_norms(xs, p, **{**kw, "incumbent": 0.0}))
            est = fpz_norm(f, 1.5, n_max=96)
        return est, cols[0]

    def test_same_bracket_fewer_columns(self, rng, monkeypatch):
        f = random_laurent(rng, span=5)
        got, got_cols = self._solve(monkeypatch, f, with_incumbent=True)
        want, want_cols = self._solve(monkeypatch, f, with_incumbent=False)
        assert got.lower == want.lower and got.upper == want.upper
        assert np.array_equal(got.witness, want.witness)
        assert got_cols < want_cols

    def test_zero_incumbent_is_the_default(self, rng):
        f = random_laurent(rng, span=5)
        xs = np.array([f.samples(48, t).xi for t in (1.0, np.exp(0.3j))])
        for a, b in zip(brackets(cyclic.fpzn_norms([xs], 1.5)[0]),
                        brackets(cyclic.fpzn_norms([xs], 1.5, incumbent=0.0)[0]), strict=True):
            assert a.lower == b.lower and a.upper == b.upper
            assert np.array_equal(a.witness, b.witness)


class TestFusedSchedule:
    """fpz_norm solves n = 1 alone, then every n up to PAD_ORDER in one fpzn_norms
    call from the bound n = 1 gave, then each larger n alone."""

    @staticmethod
    def _step_by_step(f, p, n_max, tol=1e-6):
        """fpz_norm's lower bound with one call per n, each from the bound so far."""
        upper, peak, lower = fpz_upper(f, p), sup_exact(f)[1], 0.0
        for n in [n for step in zline._schedule(n_max) for n in step]:
            bases = (1.0 + 0.0j, cmath.exp(1j * math.pi / n), peak)
            [(lows, _, _)] = cyclic.fpzn_norms([[f.samples(n, t).xi for t in bases]], p,
                                               seed=0, incumbent=lower)
            lower = max(lower, float(lows.max()))
            if upper - lower < tol:
                break
        return lower

    def test_schedule(self, monkeypatch):
        assert zline._schedule(1) == [[1]] and zline._schedule(3) == [[1], [2, 3]]
        assert zline._schedule(96) == [[1], [2, 3, 4, 6, 8, 12, 16], [24], [32], [48], [64],
                                       [96]]
        calls = []
        real = zline.fpzn_norms

        def recording(xis, p, **kwargs):
            calls.append([len(xi[0]) for xi in xis])
            return real(xis, p, **kwargs)

        monkeypatch.setattr(zline, "fpzn_norms", recording)
        fpz_norm(poly((0, 1), (1, 0.5j), (3, -0.25)), 1.25, tol=1e-12, n_max=96)
        assert calls == zline._schedule(96)

    @pytest.mark.parametrize("p", [1.25, 3.0])
    def test_never_below_step_by_step(self, p):
        # a batch-mate changes no bit of a step, and a lower incumbent only runs it longer
        for s in range(12):
            rng = np.random.default_rng(5000 + s)
            f = random_laurent(rng, span=int(rng.integers(2, 9)))
            assert fpz_norm(f, p, n_max=48).lower >= self._step_by_step(f, p, 48), s


class TestOneBasisStart:
    """fpzn_norms starts each circulant ascent from e_0 alone of the basis vectors:
    the ascent from e_j is e_0's rotated by j, so the others only repeat its work."""

    @staticmethod
    def _solve(monkeypatch, f, p, full_basis):
        """fpz_norm(f, p, n_max=96) and its ascents' matmat calls and columns; with
        `full_basis` every start block also holds the rotated basis vectors
        e_1, ..., e_{m-1} after e_0 (m = n for n <= 32, else 8)."""
        counts = [0, 0]

        def wrap(real):
            def counting(matmat, rmatmat, starts, p, **kwargs):
                n, groups = len(starts), kwargs["groups"]
                if full_basis:
                    m = n if n <= 32 else 8
                    own = starts.reshape(n, groups, -1)  # group-major column blocks
                    rotated = np.broadcast_to(np.eye(n, m)[:, None, 1:], (n, groups, m - 1))
                    starts = np.concatenate([own[:, :, :1], rotated, own[:, :, 1:]], axis=2)
                    starts = starts.reshape(n, -1)

                def counted(X):
                    counts[0] += 1
                    counts[1] += X.shape[1]
                    return matmat(X)

                return real(counted, rmatmat, starts, p, **kwargs)
            return counting

        with monkeypatch.context() as patch:
            patch_ascents(patch, wrap)
            est = fpz_norm(f, p, n_max=96)
        return est.lower, counts

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_same_iterations_fewer_columns(self, monkeypatch, p):
        # the benchmark's span-3 polynomial (corpus seed 1001)
        f = random_laurent(np.random.default_rng(1001), span=3, n_terms=4)
        lower, (calls, cols) = self._solve(monkeypatch, f, p, full_basis=False)
        want, (want_calls, want_cols) = self._solve(monkeypatch, f, p, full_basis=True)
        assert calls == want_calls
        assert cols <= 0.65 * want_cols
        assert lower == pytest.approx(want, rel=1e-13)


@pytest.mark.xfail(strict=True, reason="interpolation_upper is not rounded outward, so the "
                   "upper bound can sit an ulp below a reproduced lower bound; ROADMAP item 3 "
                   "holds the outward slack")
def test_upper_not_below_reproduced_lower():
    f = random_laurent(np.random.default_rng(20240), span=1)
    assert fpz_upper(f, 1.5) >= fpz_norm(f, 1.5, n_max=4).lower
