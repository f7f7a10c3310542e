import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from lpkit.cyclic import CyclicElement, fpzn_norm
from lpkit.pnorm import TIGHT_TOL
from lpkit.specconf import (
    ArcSet,
    EmptyMeetError,
    SpectralConfiguration,
    canonically_equivalent,
    classify,
    closure_union,
    config_value,
    fpsigma_norm,
    lattice_inf,
    lattice_sup,
    leq,
    membership_probe,
    order,
    roots_of_unity_set,
    rotation_orbits,
    saturate,
)
from lpkit.zline import LaurentPolynomial, fpz_norm, norm_l1

from conftest import brackets, random_laurent


def points_config(slots):
    return SpectralConfiguration({n: ArcSet(tuple(pts)) for n, pts in slots.items()})


def minimal(zeta):
    return SpectralConfiguration({1: ArcSet((zeta,))})


class TestArcSet:
    def test_normalization_merges_overlaps(self):
        a = ArcSet(arcs=((0, Fr(1, 4)), (Fr(1, 8), Fr(3, 8))))
        assert a.arcs == ((Fr(0), Fr(3, 8)),)

    def test_abutting_closed_arcs_merge(self):
        a = ArcSet(arcs=((0, Fr(1, 4)), (Fr(1, 4), Fr(1, 2))))
        assert a.arcs == ((Fr(0), Fr(1, 2)),)

    def test_point_on_arc_absorbed(self):
        a = ArcSet(points=(Fr(1, 8), Fr(2, 3)), arcs=((0, Fr(1, 4)),))
        assert a.points == (Fr(2, 3),)

    def test_cover_becomes_full(self):
        # two closed half-circles meeting at both ends cover the circle
        assert ArcSet(arcs=((0, Fr(1, 2)), (Fr(1, 2), Fr(1, 1)))).full
        assert ArcSet(arcs=((0, Fr(3, 4)), (Fr(1, 2), Fr(1, 4)))).full
        # overlapping but short of covering: merged, not full
        a = ArcSet(arcs=((0, Fr(1, 2)), (Fr(1, 4), Fr(3, 4))))
        assert not a.full and a.arcs == ((Fr(0), Fr(3, 4)),)
        # an arc with equal endpoints degenerates to a point, not the circle
        b = ArcSet(arcs=((Fr(1, 2), Fr(1, 2)),))
        assert not b.full and b.points == (Fr(1, 2),)

    def test_wraparound_merge(self):
        a = ArcSet(arcs=((Fr(7, 8), Fr(1, 8)), (0, Fr(1, 16))))
        assert len(a.arcs) == 1
        assert a.contains(Fr(15, 16)) and a.contains(Fr(1, 32))
        assert not a.contains(Fr(1, 2))

    def test_rational_snapping(self):
        a = ArcSet(points=(1 / 3,))
        assert a.points == (Fr(1, 3),)

    def test_rotation_exact(self):
        a = roots_of_unity_set(6)
        assert a.rotated(Fr(1, 6)).same_as(a)
        assert not a.rotated(Fr(1, 5)).same_as(a)

    def test_subset(self):
        small = ArcSet(points=(Fr(1, 8),), arcs=((Fr(1, 2), Fr(5, 8)),))
        big = ArcSet(arcs=((0, Fr(1, 4)), (Fr(1, 2), Fr(3, 4))))
        assert small.subset_of(big)
        assert not big.subset_of(small)
        assert small.subset_of(ArcSet(full=True))

    def test_intersection(self):
        a = ArcSet(arcs=((0, Fr(1, 2)),))
        b = ArcSet(arcs=((Fr(1, 4), Fr(3, 4)),))
        c = a.intersection(b)
        assert c.arcs == ((Fr(1, 4), Fr(1, 4)),)
        d = a.intersection(ArcSet(points=(Fr(1, 8), Fr(3, 4))))
        assert d.points == (Fr(1, 8),)
        # closed arcs touching at a single point intersect in that point
        e = ArcSet(arcs=((0, Fr(1, 4)),)).intersection(ArcSet(arcs=((Fr(1, 4), Fr(1, 2)),)))
        assert e.points == (Fr(1, 4),) and not e.arcs

    # irrational angles stay floats; the expected values and types are the
    # float formulas' results, pinned bit for bit
    R2, PI3, E2 = math.sqrt(2) - 1, math.pi - 3, math.e - 2

    @staticmethod
    def types(arcs):
        return [(type(s), type(ln)) for s, ln in arcs]

    def test_float_and_mixed_merge(self):
        a = ArcSet(arcs=((self.PI3, self.R2), (0.3 + self.PI3 / 100, self.E2)))
        assert a.arcs == ((self.PI3, 0.576689174869252),)
        assert self.types(a.arcs) == [(float, float)]
        b = ArcSet(arcs=((0, Fr(1, 4)), (self.PI3, self.R2)))
        assert b.arcs == ((Fr(0), self.R2),)
        assert self.types(b.arcs) == [(Fr, float)]
        c = ArcSet(arcs=((Fr(1, 8), self.R2), (self.PI3, Fr(1, 2))))
        assert c.arcs == ((Fr(1, 8), 0.375),)
        assert self.types(c.arcs) == [(Fr, float)]

    def test_float_and_mixed_wraparound_merge(self):
        a = ArcSet(arcs=((self.E2 + 0.1, self.PI3), (0.05 + self.PI3 / 100, self.R2)))
        assert a.arcs == ((self.E2 + 0.1, 0.5959317339140501),)
        assert self.types(a.arcs) == [(float, float)]
        b = ArcSet(arcs=((Fr(7, 8), self.PI3), (0, Fr(1, 16))))
        assert b.arcs == ((Fr(7, 8), 0.2665926535897931),)
        assert self.types(b.arcs) == [(Fr, float)]

    def test_float_and_mixed_intersection(self):
        a = ArcSet(arcs=((self.PI3, self.E2),)).intersection(
            ArcSet(arcs=((self.R2, Fr(7, 8)),)))
        assert a.arcs == ((self.R2, 0.30406826608594995),) and not a.points
        assert self.types(a.arcs) == [(float, float)]
        b = ArcSet(arcs=((Fr(3, 4), Fr(1, 4)),)).intersection(
            ArcSet(arcs=((self.E2 + 0.1, self.PI3),)))
        assert b.arcs == ((self.E2 + 0.1, 0.32331082513074805),) and not b.points
        assert self.types(b.arcs) == [(float, float)]
        c = ArcSet(arcs=((Fr(3, 4), Fr(1, 4)),)).intersection(
            ArcSet(arcs=((Fr(7, 8), Fr(1, 8)),)))
        assert c.arcs == ((Fr(7, 8), Fr(1, 4)),)
        # float arcs touching at one end meet in a float point
        d = ArcSet(arcs=((self.PI3, self.R2),)).intersection(
            ArcSet(arcs=((self.R2, self.E2),)))
        assert d.points == (self.R2,) and type(d.points[0]) is float and not d.arcs

    def test_arc_grid(self):
        assert ArcSet(full=True).arc_grid(Fr(1, 4)) == [k / 8 for k in range(8)]
        assert ArcSet(full=True).arc_grid(1 / 16) == [k / 16 for k in range(16)]
        # both ends of every arc, isolated points left out
        arcs = ArcSet((Fr(1, 2),), ((Fr(1, 8), Fr(3, 8)), (Fr(5, 8), Fr(7, 8))))
        assert arcs.arc_grid(1 / 8) == [0.125, 0.25, 0.375, 0.625, 0.75, 0.875]
        assert ArcSet(points=(Fr(1, 2),)).arc_grid(1 / 8) == []

    @pytest.mark.parametrize("arcset, n", [
        (roots_of_unity_set(6, Fr(1, 12)), 6),
        (ArcSet((Fr(1, 7), Fr(1, 7) + Fr(1, 3), Fr(1, 7) + Fr(2, 3)),
                ((Fr(0), Fr(1, 12)), (Fr(1, 3), Fr(5, 12)), (Fr(2, 3), Fr(3, 4)))), 3),
        # irrational float arcs; in the second set an arc wraps past 0, and two
        # orbits of arcs sit beside an orbit of points
        (ArcSet(arcs=[(a, a + 0.01) for a in np.arange(3) / 3 + (math.sqrt(2) - 1) / 3]), 3),
        (ArcSet((PI3 / 2, PI3 / 2 + 0.5),
                [(a, a + 0.03) for a in np.array([0, 0.27, 0.5, 0.77]) + math.e - 2]), 2),
        (ArcSet(arcs=((Fr(9, 10), Fr(1, 10)),)), 1),
        (ArcSet(full=True), 3),
        (ArcSet(full=True), 1),
    ])
    def test_orbit_representatives(self, arcset, n):
        SpectralConfiguration({n: arcset})  # the slot is invariant under rotation by 1/n
        reps = arcset.orbit_representatives(n)
        rebuilt = ArcSet()
        for j in range(n):
            rebuilt = rebuilt.union(reps.rotated(Fr(j, n)))
        assert rebuilt.same_as(arcset)
        if arcset.full:
            assert reps.full == (n == 1) and len(reps.arcs) == (n > 1)
        else:
            assert len(reps.points) * n == len(arcset.points)
            assert len(reps.arcs) * n == len(arcset.arcs)
            # kept as stored, so their grid is the slot's own, bit for bit
            assert reps.arcs == arcset.arcs[:len(reps.arcs)]


    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12, 96])
    def test_rotation_orbits_of_a_float_array(self, rng, n):
        # the broadcast (b + j/n) % 1 of a float array gives the bits of the Python
        # float loop, which exact fractions keep
        bases = np.concatenate([rng.random(200), rng.random(8) - 1.0, [0.0, 1 - 2.0**-53]])
        got = rotation_orbits(bases, n)
        want = rotation_orbits(bases.tolist(), n)
        assert type(got) is np.ndarray and got.tobytes() == np.array(want).tobytes()
        assert rotation_orbits([Fr(1, 3)], n) == [(Fr(1, 3) + Fr(j, n)) % 1 for j in range(n)]


class TestConfigurationBasics:
    def test_validation_rotation_invariance(self):
        with pytest.raises(ValueError):
            SpectralConfiguration({2: ArcSet(points=(0,))})
        SpectralConfiguration({2: ArcSet(points=(0, Fr(1, 2)))})

    def test_at_least_one_slot(self):
        with pytest.raises(ValueError):
            SpectralConfiguration({})
        SpectralConfiguration({}, infinity_full=True)

    def test_order(self):
        assert order(points_config({2: (0, Fr(1, 2))})) == 2
        assert order(SpectralConfiguration({}, infinity_full=True)) == math.inf
        assert order(points_config({1: (0,), 3: tuple(Fr(j, 3) for j in range(3))})) == 3

    def test_json_round_trip(self):
        cfg = SpectralConfiguration(
            {2: ArcSet(points=(0, Fr(1, 2)), arcs=())}, infinity_full=False)
        back = SpectralConfiguration.from_json(cfg.to_json())
        assert canonically_equivalent(cfg, back)
        m = SpectralConfiguration.maximal_configuration()
        assert SpectralConfiguration.from_json(m.to_json()).maximal


class TestSaturation:
    def test_divisor_closure(self):
        sat = saturate(points_config({2: (0, Fr(1, 2))}))
        assert sorted(sat.finite_slots) == [1, 2]
        assert sat.finite_slots[1].points == (Fr(0), Fr(1, 2))

    def test_six_roots(self):
        sat = saturate(SpectralConfiguration({6: roots_of_unity_set(6)}))
        assert sorted(sat.finite_slots) == [1, 2, 3, 6]
        for n in (1, 2, 3, 6):
            assert sat.finite_slots[n].same_as(roots_of_unity_set(6))

    def test_idempotent_and_monotone(self, rng):
        for k in range(20):
            cfg = random_points_config(rng)
            sat = saturate(cfg)
            assert sat.is_saturated
            assert canonically_equivalent(sat, saturate(sat))
            assert leq(cfg, sat)

    def test_minimality(self, rng):
        for k in range(10):
            cfg = random_points_config(rng)
            sat = saturate(cfg)
            extra = random_points_config(rng)
            bigger = lattice_sup([sat, extra])
            assert leq(sat, bigger)

    def test_infinite_order_saturates_maximal(self):
        cfg = SpectralConfiguration({2: ArcSet(points=(0, Fr(1, 2)))}, infinity_full=True)
        assert saturate(cfg).maximal


def random_points_config(rng):
    slots = {}
    for n in rng.choice([1, 2, 3, 4, 6], size=int(rng.integers(1, 4)), replace=False):
        n = int(n)
        base = Fr(int(rng.integers(0, 12)), 12)
        slots[n] = roots_of_unity_set(n, base)
    return SpectralConfiguration(slots)


class TestLattice:
    def test_minimal_below_everything_containing_it(self):
        sigma = saturate(points_config({2: (0, Fr(1, 2))}))
        assert leq(minimal(0), sigma)
        assert leq(sigma, SpectralConfiguration.maximal_configuration())
        assert not leq(sigma, minimal(0))

    def test_sup_of_minimals(self):
        sup = lattice_sup([minimal(0), minimal(Fr(1, 2))])
        assert sorted(sup.finite_slots) == [1]
        assert sup.finite_slots[1].points == (Fr(0), Fr(1, 2))

    def test_inf(self):
        sigma = saturate(points_config({2: (0, Fr(1, 2))}))
        assert canonically_equivalent(lattice_inf([sigma, sigma]), sigma)
        with pytest.raises(EmptyMeetError):
            lattice_inf([minimal(0), minimal(Fr(1, 2))])

    def test_closure_union(self):
        assert closure_union(points_config({2: (0, Fr(1, 2))})).points == (Fr(0), Fr(1, 2))
        assert closure_union(SpectralConfiguration({}, infinity_full=True)).full
        mixed = SpectralConfiguration({1: ArcSet(arcs=((0, Fr(1, 4)),), points=(Fr(1, 2),))})
        u = closure_union(mixed)
        assert u.arcs and u.points


class TestCanonicalEquivalence:
    def test_maximal_vs_all_roots(self):
        maximal = SpectralConfiguration.maximal_configuration()
        tau = SpectralConfiguration(
            {n: roots_of_unity_set(n) for n in (1, 2, 3, 4, 5)}, infinity_full=True)
        assert canonically_equivalent(maximal, tau)

    def test_config_vs_its_saturation(self, rng):
        cfg = random_points_config(rng)
        assert canonically_equivalent(cfg, saturate(cfg))

    def test_distinct_minimals(self):
        assert not canonically_equivalent(minimal(0), minimal(Fr(1, 2)))


class TestClassify:
    def test_branches(self):
        assert classify(SpectralConfiguration.maximal_configuration(), 1).kind == "fpz"
        arc1 = SpectralConfiguration({1: ArcSet(arcs=((0, Fr(1, 3)),))})
        res = classify(arc1, 1)
        assert res.kind == "continuous" and res.order == 1 and res.isometric_to_sup
        res = classify(points_config({2: (0, Fr(1, 2))}), 3)
        assert res.kind == "continuous" and res.order == 2 and not res.isometric_to_sup
        assert classify(points_config({2: (0, Fr(1, 2))}), 2).isometric_to_sup


class TestFpsigmaNorm:
    def test_generator_norm_one(self, rng):
        gen = LaurentPolynomial(((1, 1),))
        inv = LaurentPolynomial(((-1, 1),))
        configs = [
            points_config({2: (0, Fr(1, 2))}),
            SpectralConfiguration({1: ArcSet(arcs=((0, Fr(1, 4)),))}),
            SpectralConfiguration({}, infinity_full=True),
        ]
        for cfg in configs:
            for p in (1.0, 1.7, 2.0, 3.0):
                for f in (gen, inv):
                    est = fpsigma_norm(f, cfg, p, n_max=16)
                    assert est.lower == pytest.approx(1.0, abs=1e-8)

    def test_slot_two_value(self):
        f = LaurentPolynomial(((0, (1 + 1j) / 2), (1, (1 - 1j) / 2)))
        est = fpsigma_norm(f, points_config({2: (0, Fr(1, 2))}), 1)
        assert est.lower == pytest.approx(math.sqrt(2), rel=1e-12)
        assert est.upper == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_order_one_point_slot_is_sup(self, rng):
        f = random_laurent(rng, span=3)
        cfg = points_config({1: (Fr(1, 5), Fr(2, 5))})
        est = fpsigma_norm(f, cfg, 3, seed=0)
        expected = max(abs(f(np.exp(2j * np.pi / 5))), abs(f(np.exp(4j * np.pi / 5))))
        assert est.lower == pytest.approx(expected, rel=1e-9)

    def test_arc_slot_brackets_sup(self, rng):
        f = random_laurent(rng, span=3)
        cfg = SpectralConfiguration({1: ArcSet(arcs=((0, Fr(1, 2)),))})
        est = fpsigma_norm(f, cfg, 1, resolution=1 / 512)
        theta = np.linspace(0, np.pi, 2001)
        brute = float(np.max(np.abs(f(np.exp(1j * theta)))))
        assert est.lower >= brute - 1e-3
        assert est.upper <= norm_l1(f) + 1e-12

    def test_saturation_invariance(self, rng):
        for k in range(6):
            cfg = random_points_config(rng)
            sat = saturate(cfg)
            f = random_laurent(rng, span=3)
            for p in (1.0, 3.0):
                e1 = fpsigma_norm(f, cfg, p, seed=k)
                e2 = fpsigma_norm(f, sat, p, seed=k)
                assert e1.overlaps(e2, 1e-6)
                if p == 1.0:
                    assert abs(e1.lower - e2.lower) <= 1e-6

    def test_full_infinity_matches_fpz(self, rng):
        cfg = SpectralConfiguration({}, infinity_full=True)
        for k in range(3):
            f = random_laurent(rng, span=3)
            for p in (1.5,):
                es = fpsigma_norm(f, cfg, p, n_max=32, seed=k)
                ez = fpz_norm(f, p, n_max=32, seed=k)
                assert es.overlaps(ez, 1e-9)

    def test_dominates_gelfand_sup(self, rng):
        f = random_laurent(rng, span=3)
        cfg = points_config({2: (0, Fr(1, 2)), 1: (Fr(1, 4),)})
        est = fpsigma_norm(f, cfg, 1.6, seed=0)
        pts = [1.0, -1.0, 1j]
        assert est.lower >= max(abs(f(z)) for z in pts) - 1e-8

    def test_one_tuple_per_point_orbit(self, rng, monkeypatch):
        import lpkit.specconf as specconf

        calls = []
        real = specconf.fpzn_norms

        def counting(xis, p, **kwargs):
            solved = real(xis, p, **kwargs)
            calls.append(([np.shape(xi) for xi in xis], [brackets(s) for s in solved], kwargs))
            return solved

        monkeypatch.setattr(specconf, "fpzn_norms", counting)
        f = random_laurent(rng, span=3)
        cfg = points_config({2: (0, Fr(1, 2)), 3: (Fr(1, 7), Fr(1, 7) + Fr(1, 3),
                                                   Fr(1, 7) + Fr(2, 3))})
        est = fpsigma_norm(f, cfg, 3, seed=0)
        # each slot is one rotation orbit, so one tuple per slot, both slots in one
        # call at the tight tolerance, and no slot solved on its own
        [(shapes, solved, kwargs)] = calls
        assert shapes == [(1, 2), (1, 3)] and kwargs["tol"] == TIGHT_TOL
        ests = [e for slot in solved for e in slot]
        assert est.upper == max(e.upper for e in ests)
        assert est.lower == max(e.lower for e in ests)

    def test_point_orders_share_one_ascent(self, rng, monkeypatch):
        # orders 2, 3 and 5 at p = 3: one tuple per orbit, all in one grouped
        # ascent over dense circulants, none through the FFT path
        import lpkit.cyclic as cyclic
        import lpkit.pnorm as pnorm

        groups = []
        real = pnorm.boyd_lower

        def counting(*args, **kwargs):
            groups.append((kwargs["groups"], kwargs["tol"]))
            return real(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("an FFT product")

        f = random_laurent(rng, span=3)
        orbit = lambda n, *bases: [b + Fr(j, n) for b in bases for j in range(n)]
        cfg = points_config({2: orbit(2, Fr(0), Fr(1, 8)), 3: orbit(3, Fr(1, 7)),
                             5: orbit(5, Fr(1, 11), Fr(1, 13))})
        # every rotation of every point, each solved alone: the same norm up to
        # the ascent's tolerance
        evaluate = lambda a: f(np.exp(2j * np.pi * np.asarray(a, dtype=float)))
        every = [fpzn_norm(CyclicElement(n, evaluate([a + Fr(j, n) for j in range(n)])), 3,
                           tol=TIGHT_TOL).lower
                 for n, arcset in cfg.finite_slots.items() for a in arcset.points]
        monkeypatch.setattr(pnorm, "boyd_lower", counting)
        monkeypatch.setattr(cyclic, "_circulant_matmats", refuse)
        est = fpsigma_norm(f, cfg, 3, seed=0)
        assert groups == [(2 + 1 + 2, TIGHT_TOL)]
        assert est.lower == pytest.approx(max(every), rel=1e-11)

    def test_point_order_above_pad_order(self, rng, monkeypatch):
        # an order-20 slot skips the padded ascent of the order-3 slot: its tuples
        # keep the brackets of one FFT fpzn_norms call at TIGHT_TOL, bit for bit
        import lpkit.cyclic as cyclic
        import lpkit.specconf as specconf

        calls = []
        real = specconf.fpzn_norms

        def recording(xis, p, **kwargs):
            calls.append((xis, real(xis, p, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(specconf, "fpzn_norms", recording)
        f = random_laurent(rng, span=3)
        orbit = lambda n, *bases: [b + Fr(j, n) for b in bases for j in range(n)]
        cfg = points_config({3: orbit(3, Fr(1, 7)), 20: orbit(20, Fr(1, 41), Fr(1, 43))})
        for p in (1.5, 3.0):
            calls.clear()
            est = fpsigma_norm(f, cfg, p, seed=0)
            [(xis, solved)] = calls
            assert [np.shape(xi) for xi in xis] == [(1, 3), (2, 20)]
            [want] = cyclic.fpzn_norms([xis[1]], p, tol=TIGHT_TOL, seed=0)
            for got, expected in zip(solved[1], want, strict=True):
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            assert est.lower == max(float(lower.max()) for lower, _, _ in solved)

    def test_points_need_no_sup(self, rng, monkeypatch):
        # only an arc or full slot uses the whole-circle upper bound
        import lpkit.specconf as specconf

        def refuse(*args, **kwargs):
            raise AssertionError("computed sup |f| for a point-only configuration")

        monkeypatch.setattr(specconf, "sup_exact", refuse)
        f = random_laurent(rng, span=3)
        cfg = points_config({1: (Fr(1, 5),), 2: (0, Fr(1, 2)),
                             3: (Fr(1, 7), Fr(1, 7) + Fr(1, 3), Fr(1, 7) + Fr(2, 3))})
        for p in (1.0, 1.5, 2.0, 3.0):
            est = fpsigma_norm(f, cfg, p, seed=0)
            assert est.method == ("exact-p1" if p == 1.0 else "exact-p2" if p == 2.0
                                  else "boyd+interp")

    def test_no_cyclic_element_per_tuple(self, rng, monkeypatch):
        # slot tuples go to fpzn_norms as one array, never one object each
        from lpkit.cyclic import CyclicElement

        built = [0]
        real = CyclicElement.__post_init__

        def counting(self):
            built[0] += 1
            real(self)

        monkeypatch.setattr(CyclicElement, "__post_init__", counting)
        f = random_laurent(rng, span=3)
        arcs = SpectralConfiguration({2: ArcSet((0, Fr(1, 2)), ((0.1, 0.15), (0.6, 0.65)))})
        for cfg in (points_config({2: (0, Fr(1, 2)), 3: (Fr(1, 3), Fr(2, 3), 0)}), arcs):
            fpsigma_norm(f, cfg, 3, seed=0)
            config_value(lambda a: f(np.exp(2j * np.pi * a)), cfg, 3)
        assert built[0] == 0

    def test_one_norm_estimate_per_call(self, rng, monkeypatch):
        # the slot tuples' brackets stay arrays; only the reported bracket is an object
        from lpkit.pnorm import NormEstimate

        built = [0]
        real = NormEstimate.__post_init__

        def counting(self):
            built[0] += 1
            real(self)

        monkeypatch.setattr(NormEstimate, "__post_init__", counting)
        f = random_laurent(rng, span=3)
        arcs = SpectralConfiguration({2: ArcSet((0, Fr(1, 2)), ((0.1, 0.15), (0.6, 0.65)))})
        for cfg in (points_config({2: (0, Fr(1, 2)), 3: (Fr(1, 3), Fr(2, 3), 0)}), arcs):
            for p in (1.0, 2.0, 3.0):
                built[0] = 0
                est = fpsigma_norm(f, cfg, p, seed=0)
                assert built[0] == 1
                assert type(est.lower) is float and type(est.upper) is float

    def test_arc_slot_calls(self, rng, monkeypatch):
        import lpkit.specconf as specconf

        calls = []
        real = specconf.fpzn_norms

        def counting(xis, p, **kwargs):
            solved = real(xis, p, **kwargs)
            calls.append(([brackets(s) for s in solved], kwargs))
            return solved

        monkeypatch.setattr(specconf, "fpzn_norms", counting)
        f = random_laurent(rng, span=3)
        arcset = ArcSet((0, Fr(1, 2)), ((0.1, 0.15), (0.6, 0.65)))
        est = fpsigma_norm(f, SpectralConfiguration({2: arcset}), 3, seed=0)
        # first the points, one call for every slot: 0 and 1/2 are one orbit, one tuple
        (points, point_kwargs), *calls = calls
        assert [len(ests) for ests in points] == [1] and point_kwargs["tol"] == TIGHT_TOL
        # every arc call solves one array
        assert all(len(solved) == 1 for solved, _ in calls)
        calls = [(ests, kwargs) for [ests], kwargs in calls]
        # the grid of one orbit (one arc), ten k-section steps of eight angles
        # each, then the best arc angle's two rotations at the tight tolerance
        grid = len(ArcSet(arcs=((0.1, 0.15),)).arc_grid(1.0 / 2048))
        assert [len(ests) for ests, _ in calls] == [grid] + [8] * 10 + [2]
        # only the steps start from a carried witness
        carried = [kwargs.get("starts") is not None for _, kwargs in calls]
        assert carried == [False] + [True] * 10 + [False]
        assert calls[-1][1].get("tol") == TIGHT_TOL
        solved = points[0] + [e for ests, _ in calls for e in ests]
        best = max(solved, key=lambda e: e.lower)
        assert est.lower == best.lower
        assert np.array_equal(est.witness, best.witness)

    # fpsigma_norm brackets at p = 1.25, 1.5, 3 on the six configurations that
    # test_arc_slot_replay draws, recorded while every step started from the
    # standard block: carried starts may only tighten them
    _REPLAY = [
        ((3.046738549923822, 4.087241597937124), (3.03435881037835, 3.9567576502694655),
         (3.0343588103783494, 3.956757650269466)),
        ((4.232722321405375, 4.888543170784454), (4.232722321405375, 4.606470433943885),
         (4.232722321405375, 4.606470433943885)),
        ((3.661529135015885, 5.220559819362089), (3.6615291350158845, 4.960664716315236),
         (3.661529135015884, 4.960664716315236)),
        ((3.270197476290518, 4.6671453069411815), (3.2701909018522635, 4.651361614377061),
         (3.270190901852264, 4.651361614377061)),
        ((2.1144040472578327, 2.1153406951146025), (2.1144040472578314, 2.115340695115167),
         (2.1144040472578323, 2.1153406951151665)),
        ((3.5693204974030306, 6.588731560278581), (3.5693204974030275, 6.319310281572521),
         (3.5693204974030266, 6.319310281572521)),
    ]

    def test_arc_slot_replay(self):
        rng = np.random.default_rng(4242)
        for brackets in self._REPLAY:
            f = random_laurent(rng, span=int(rng.integers(2, 7)))
            n = int(rng.integers(2, 7))
            length = float(rng.choice([0.002, 0.01, 0.03, 0.08])) / n
            start = rng.random() / n
            arcset = ArcSet(arcs=tuple((start + j / n, start + j / n + length) for j in range(n)))
            for p, (lower, upper) in zip((1.25, 1.5, 3), brackets):
                est = fpsigma_norm(f, SpectralConfiguration({n: arcset}), p, seed=1)
                assert est.lower >= lower * (1 - 1e-15), (n, p)
                assert est.upper <= upper, (n, p)

    # fpsigma_norm brackets at p = 1.5, 3 and resolution 1/256 on full-circle
    # slots of orders 2, 3 and 5, recorded while the grid covered the whole
    # circle and the confirmation solved one angle
    _FULL_CIRCLE = [
        (2, [(0.966909319168473, 0.9669093191691177), (0.966909319168473, 0.9669093191691177)]),
        (3, [(6.658755275931665, 6.951855493231461), (6.658755275931665, 6.951855493231461)]),
        (5, [(3.3956870079810924, 3.3961693132255877), (3.395687007981093, 3.396169313225588)]),
    ]

    def test_full_circle_replay(self):
        rng = np.random.default_rng(2718)
        for n, brackets in self._FULL_CIRCLE:
            f = random_laurent(rng, span=int(rng.integers(3, 6)))
            cfg = SpectralConfiguration({n: ArcSet(full=True)})
            for p, (lower, upper) in zip((1.5, 3), brackets):
                est = fpsigma_norm(f, cfg, p, 1 / 256, seed=1)
                assert est.lower >= lower * (1 - 1e-13), (n, p)
                assert est.upper <= upper, (n, p)

    @pytest.mark.parametrize("resolution", [math.nan, math.inf, -math.inf, 0.0, -1 / 8, 1e-9])
    def test_resolution_checked_up_front(self, resolution):
        def evaluate(angles):
            raise AssertionError("no tuple may be evaluated")

        f = LaurentPolynomial(((0, 1), (1, 1)))
        for cfg in (points_config({2: (0, Fr(1, 2))}),
                    SpectralConfiguration({2: ArcSet(arcs=((0.1, 0.15), (0.6, 0.65)))})):
            with pytest.raises(ValueError, match="resolution must be finite and positive"):
                fpsigma_norm(f, cfg, 3, resolution)
            with pytest.raises(ValueError, match="resolution must be finite and positive"):
                config_value(evaluate, cfg, 3, resolution)

    def test_finest_resolution_accepted(self):
        # 2^-16 is the floor itself; a points-only configuration builds no arc grid
        f = LaurentPolynomial(((0, 1), (1, 1)))
        cfg = points_config({2: (0, Fr(1, 2))})
        est = fpsigma_norm(f, cfg, 3, 2.0**-16)
        assert est.lower == fpsigma_norm(f, cfg, 3).lower
        assert config_value(lambda angles: f(np.exp(2j * math.pi * angles)), cfg, 3,
                            2.0**-16) == est.lower

    # three arc slots: an arc at order 1, two arcs and a point orbit at order 2,
    # the full circle at order 3
    _THREE_ARC_SLOTS = {
        1: ArcSet(arcs=((0.1, 0.3),)),
        2: ArcSet((Fr(1, 5), Fr(7, 10)), ((0.05, 0.12), (0.55, 0.62))),
        3: ArcSet(full=True),
    }

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_lockstep_slots_match_alone(self, p):
        # every arc slot searches in lockstep with the others, one column each, but
        # gets the lower bound and witness bytes it gets in a configuration alone
        import lpkit.specconf as specconf

        f = random_laurent(np.random.default_rng(29), span=4)
        evaluate = lambda angles: f(np.exp(2j * math.pi * angles))  # noqa: E731
        slots = self._THREE_ARC_SLOTS
        together = specconf._slots_lower(evaluate, slots, p, 1 / 256, 0)
        alone = [specconf._slots_lower(evaluate, {n: arcset}, p, 1 / 256, 0)[0]
                 for n, arcset in slots.items()]
        for (lo, wit, exact, up), (lo1, wit1, exact1, up1) in zip(together, alone, strict=True):
            assert lo == lo1 and wit.tobytes() == wit1.tobytes()
            assert exact is exact1 is False and up == up1
        est = fpsigma_norm(f, SpectralConfiguration(slots), p, 1 / 256)
        single = [fpsigma_norm(f, SpectralConfiguration({n: arcset}), p, 1 / 256)
                  for n, arcset in slots.items()]
        first = max(single, key=lambda e: e.lower)  # the first of the largest, as slots reduce
        assert est.lower == first.lower and est.witness.tobytes() == first.witness.tobytes()
        assert est.upper == max(e.upper for e in single)
        value = config_value(evaluate, SpectralConfiguration(slots), p, 1 / 256)
        assert value == max(config_value(evaluate, SpectralConfiguration({n: arcset}), p, 1 / 256)
                            for n, arcset in slots.items()) == est.lower

    @pytest.mark.parametrize("arc_slots", [1, 2, 3])
    def test_thirteen_fpzn_calls_with_arcs(self, monkeypatch, arc_slots):
        # the point tuples, the grids, ten k-section steps and the confirmations:
        # one fpzn_norms call each, whatever the number of arc slots
        import lpkit.specconf as specconf

        calls = []
        real = specconf.fpzn_norms

        def counting(xis, p, **kwargs):
            calls.append(len(xis))
            return real(xis, p, **kwargs)

        monkeypatch.setattr(specconf, "fpzn_norms", counting)
        f = LaurentPolynomial(((0, 1), (1, 1j), (3, -0.5)))
        slots = dict(list(self._THREE_ARC_SLOTS.items())[:arc_slots])
        slots[4] = roots_of_unity_set(4, Fr(1, 8))
        fpsigma_norm(f, SpectralConfiguration(slots), 1.5, 1 / 256)
        assert calls == [arc_slots + 1] + [arc_slots] * 12
        calls.clear()
        fpsigma_norm(f, points_config({4: roots_of_unity_set(4).points}), 1.5)
        assert calls == [1]

    @pytest.mark.parametrize("slot", [
        pytest.param(ArcSet(full=True), id="full"),
        pytest.param(ArcSet(arcs=tuple((Fr(j, 257) + Fr(1, 1000), Fr(j, 257) + Fr(2, 1000))
                                       for j in range(257))), id="arcs"),
    ])
    def test_arc_order_checked_up_front(self, monkeypatch, slot):
        # a full or arc slot of order n confirms n tuples of order n, so n^2 work:
        # above order 256 it is refused before any tuple is solved
        import lpkit.specconf as specconf

        def refuse(*args, **kwargs):
            raise AssertionError("no tuple may be solved")

        monkeypatch.setattr(specconf, "fpzn_norms", refuse)
        f = LaurentPolynomial(((0, 1), (1, 1)))
        cfg = SpectralConfiguration({2: ArcSet(full=True), 257: slot})
        with pytest.raises(ValueError, match="order at most 256"):
            fpsigma_norm(f, cfg, 1.5)
        with pytest.raises(ValueError, match="order at most 256"):
            config_value(lambda angles: f(np.exp(2j * math.pi * angles)), cfg, 1.5)

    def test_point_slot_of_large_order_accepted(self):
        # a point slot solves one tuple per orbit, so the arc order cap leaves it alone
        f = LaurentPolynomial(((0, 1), (1, 1)))
        est = fpsigma_norm(f, SpectralConfiguration({300: roots_of_unity_set(300)}), 2)
        assert est.lower == pytest.approx(2.0, rel=1e-12)

    def test_arc_slot_refinement_precision(self, rng):
        # at order 1 and p = 2 the tuple norm is |f|; the arc holds the peak of
        # |f|, and the search must end no coarser than 30 golden-section steps
        # (six k-section steps instead of ten fail on some of these)
        resolution = 1.0 / 2048
        circle = np.arange(2**16) / 2**16
        for _ in range(8):
            f = random_laurent(rng, span=6)
            absf = lambda a: np.abs(f(np.exp(2j * math.pi * a)))
            peak = float(circle[np.argmax(absf(circle))])
            arcset = ArcSet(arcs=((peak - 0.01, peak + 0.017),))
            grid = np.array(arcset.arc_grid(resolution))
            g = grid[np.argmax(absf(grid))]
            window = np.linspace(g - resolution, g + resolution, 2**16)
            est = fpsigma_norm(f, SpectralConfiguration({1: arcset}), 2, resolution)
            assert est.lower >= np.max(absf(window)) * (1 - 1e-13)

    @pytest.mark.xfail(strict=True, reason="the k-section refinement searches one grid "
                       "spacing around the best grid angle, which can reach outside the "
                       "arcs, so the lower bound exceeds the in-arc sup")
    def test_arc_slot_lower_stays_in_arc(self):
        # at order 1 the tuple norm is |f|, and |1 + z| <= sqrt(2) on [1/4, 3/10];
        # the refinement reports 1.4163812734302654 at both exponents
        f = LaurentPolynomial(((0, 1), (1, 1)))
        cfg = SpectralConfiguration({1: ArcSet(arcs=((0.25, 0.30),))})
        for p in (1.5, 3):
            assert fpsigma_norm(f, cfg, p).lower <= math.sqrt(2) * (1 + 1e-12)

    def test_leq_implies_norm_leq(self, rng):
        for k in range(5):
            small = saturate(random_points_config(rng))
            big = lattice_sup([small, random_points_config(rng)])
            f = random_laurent(rng, span=3)
            for p in (1.0, 3.0):
                e_small = fpsigma_norm(f, small, p, seed=k)
                e_big = fpsigma_norm(f, big, p, seed=k)
                assert e_small.lower <= e_big.upper + 1e-6


class TestMembershipProbe:
    def setup_method(self):
        self.sigma = saturate(points_config({2: (0, Fr(1, 2))}))

    def test_member(self):
        res = membership_probe(0, 2, self.sigma, 1)
        assert res.verdict == "member"
        assert res.trace[-1][1] == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_not_member(self):
        res = membership_probe(Fr(1, 4), 2, self.sigma, 1)
        assert res.verdict == "not-member"
        assert res.trace[-1][1] == pytest.approx(0.0, abs=1e-12)

    def test_point_membership_slot_one(self):
        assert membership_probe(Fr(1, 2), 1, self.sigma, 1).verdict == "member"
        assert membership_probe(Fr(1, 3), 1, self.sigma, 1).verdict == "not-member"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            membership_probe(0, 2, self.sigma, 2)
        with pytest.raises(ValueError):
            membership_probe(0, 2, points_config({2: (0, Fr(1, 2))}), 1)  # not saturated
        with pytest.raises(ValueError):
            membership_probe(0, 2, SpectralConfiguration({}, infinity_full=True), 1)
        with pytest.raises(ValueError):
            membership_probe(0, 2, self.sigma, 1, k_schedule=(4, 4))

    def test_probe_on_six_slot_config(self):
        sigma = saturate(SpectralConfiguration({3: roots_of_unity_set(3)}))
        assert membership_probe(0, 3, sigma, 1).verdict == "member"
        assert membership_probe(Fr(1, 6), 3, sigma, 1).verdict == "not-member"
        # slot 2 is empty here: probing order 2 at a slot-1 point must not fire
        assert membership_probe(0, 2, sigma, 1).verdict != "member"
