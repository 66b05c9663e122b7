import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

import gfourier as gf
from conftest import forced_arrow_structure, no_bisection_structure
from reference import (
    bisections_brute_force,
    bisections_through_brute_force,
    groupoids_isomorphic,
)


class TestPairGroupoid:
    def test_degenerate_single_point(self):
        g = gf.pair_groupoid(1)
        assert g.n_arrows == 1 and g.n_units == 1
        assert gf.validate(g).ok

    def test_two_points(self, g2):
        assert g2.n_arrows == 4 and g2.n_units == 2
        # (0,1)(1,0) = (0,0): arrow ids 1, 2 compose to 0
        assert g2.compose(1, 2) == 0
        assert g2.compose(2, 1) == 3
        with pytest.raises(ValueError):
            g2.compose(1, 1)

    def test_three_points_axioms(self, g3):
        assert gf.validate(g3).ok


class TestGroupGroupoid:
    def test_z2(self, z2):
        assert z2.n_arrows == 2 and z2.n_units == 1
        assert gf.validate(z2).ok

    def test_z3_inverse_is_square(self, z3):
        for a in range(3):
            assert z3.inverse_of[a] == z3.compose_table[a, a] or a == 0
        assert z3.inverse_of[1] == 2 and z3.inverse_of[2] == 1

    def test_broken_table_rejected(self):
        with pytest.raises(ValueError):
            gf.group_groupoid([[0, 1], [0, 1]])  # rows not a latin square
        with pytest.raises(ValueError):
            gf.group_groupoid([[1, 0], [0, 0]])  # no identity behavior
        with pytest.raises(ValueError):
            # identity exists but 1*1 = 1 has no inverse behavior
            gf.group_groupoid([[0, 1, 2], [1, 1, 1], [2, 1, 0]])


class TestGroupBundle:
    def test_two_z2_fibers(self):
        g = gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(2)])
        assert g.n_arrows == 4 and g.n_units == 2
        assert gf.validate(g).ok
        # no cross-fiber composition
        for x in range(2):
            for y in range(2, 4):
                assert g.compose_table[x, y] == -1

    def test_bisection_count_is_fiber_product(self, bundle23):
        assert bundle23.n_arrows == 5
        gamma = gf.enumerate_bisections(bundle23)
        assert len(gamma) == 6
        assert [b.picks for b in gamma] == bisections_brute_force(bundle23)

    def test_single_fiber_matches_group_groupoid(self, z3):
        g = gf.group_bundle([gf.cyclic_table(3)])
        assert np.array_equal(g.compose_table, z3.compose_table)
        assert np.array_equal(g.inverse_of, z3.inverse_of)
        assert np.array_equal(g.unit_arrows, z3.unit_arrows)


class TestProductWithPairGroupoid:
    def test_trivial_base_gives_two_point_pairs(self, g2):
        base = gf.group_groupoid(gf.cyclic_table(1))
        prod = gf.product_with_pair_groupoid(base)
        assert prod.n_arrows == 4 and prod.n_units == 2
        assert groupoids_isomorphic(prod, g2)

    def test_counts(self, g2):
        prod = gf.product_with_pair_groupoid(g2)
        assert prod.n_arrows == 16 and prod.n_units == 4
        assert gf.validate(prod).ok

    def test_three_point_base_valid(self, g3):
        assert gf.validate(gf.product_with_pair_groupoid(g3)).ok

    def test_arrow_indexing(self, g2):
        prod = gf.product_with_pair_groupoid(g2)
        for x in range(g2.n_arrows):
            for i in (0, 1):
                for j in (0, 1):
                    a = gf.product_arrow_id(x, i, j)
                    assert prod.range_of[a] == gf.product_unit_id(int(g2.range_of[x]), i)
                    assert prod.source_of[a] == gf.product_unit_id(int(g2.source_of[x]), j)


class TestTransformationGroupoid:
    def test_swap_action_is_two_point_pair_groupoid(self, g2):
        g = gf.transformation_groupoid(gf.cyclic_table(2), [[0, 1], [1, 0]])
        assert g.n_arrows == 4 and g.n_units == 2
        assert gf.validate(g).ok
        assert groupoids_isomorphic(g, g2)

    def test_trivial_action_is_group_bundle(self):
        g = gf.transformation_groupoid(gf.cyclic_table(2), [[0, 1], [0, 1]])
        bundle = gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(2)])
        assert gf.validate(g).ok
        assert groupoids_isomorphic(g, bundle)

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            # identity element must act trivially
            gf.transformation_groupoid(gf.cyclic_table(2), [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            # 1.(1.p) = p but 2.p swaps: incompatible with the product
            gf.transformation_groupoid(gf.cyclic_table(3), [[0, 1], [1, 0], [1, 0]])


class TestValidate:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: gf.pair_groupoid(3),
            lambda: gf.group_groupoid(gf.cyclic_table(4)),
            lambda: gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)]),
            lambda: gf.product_with_pair_groupoid(gf.pair_groupoid(2)),
            lambda: gf.transformation_groupoid(gf.cyclic_table(2), [[0, 1], [1, 0]]),
            lambda: gf.pair_groupoid(2, unit_weights=[0.5, 3.0]),
        ],
    )
    def test_constructors_pass(self, build):
        assert gf.validate(build()).ok

    def test_haar_violation_flagged(self, g2):
        # arrow (0,1) has source 1; give it a weight differing from unit 1's
        bad = dataclasses.replace(g2, weights=np.array([1.0, 2.0, 1.0, 1.0]))
        report = gf.validate(bad)
        assert not report.ok
        assert any("Haar" in v for v in report.violations)

    @pytest.mark.parametrize("bad_weight", [np.nan, np.inf])
    def test_non_finite_weight_flagged(self, g2, bad_weight):
        bad = dataclasses.replace(g2, weights=np.array([1.0, bad_weight, 1.0, bad_weight]))
        assert "weights must be finite" in gf.validate(bad).violations

    @pytest.mark.parametrize("bad_weight", [np.nan, np.inf, 0.0, -1.0])
    def test_constructors_reject_bad_weights(self, g2, bad_weight):
        with pytest.raises(ValueError, match="positive finite weight"):
            gf.pair_groupoid(2, unit_weights=[1.0, bad_weight])
        with pytest.raises(ValueError, match="positive finite weight"):
            g2.with_unit_weights([bad_weight, 1.0])

    def test_non_associative_table_flagged(self, z3):
        table = z3.compose_table.copy()
        table[1, 1] = 1  # 1+1 should be 2
        bad = dataclasses.replace(z3, compose_table=table)
        report = gf.validate(bad)
        assert not report.ok

    def test_broken_unit_flagged(self):
        report = gf.validate(no_bisection_structure())
        assert not report.ok
        assert any("unit arrow" in v for v in report.violations)

    def test_pair_32_builds_and_validates_within_budget(self):
        # about 0.04 s of CPU; the loop over arrows it replaced took 0.28-0.82 s
        start = time.process_time()
        report = gf.validate(gf.pair_groupoid(32))
        assert time.process_time() - start < 0.25
        assert report.ok

    def test_traced_peak_on_pair_32(self):
        g = gf.pair_groupoid(32)
        tracemalloc.start()
        try:
            assert gf.validate(g).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the loop over arrows it replaced peaked at 8.14 MB
        assert peak <= 8.1e6


class TestBisections:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pair_groupoid_count_is_factorial(self, n):
        g = gf.pair_groupoid(n)
        gamma = gf.enumerate_bisections(g)
        assert len(gamma) == [1, 1, 2, 6, 24][n]
        assert [b.picks for b in gamma] == bisections_brute_force(g)
        for b in gamma:
            assert gf.is_bisection(g, b.picks)

    def test_enumeration_is_canonically_ordered(self, g3):
        gamma = gf.enumerate_bisections(g3)
        assert [b.picks for b in gamma] == sorted(b.picks for b in gamma)

    def test_no_bisection_structure_gives_empty_list(self):
        g = no_bisection_structure()
        assert gf.enumerate_bisections(g) == []
        assert bisections_brute_force(g) == []

    def test_identity_and_inverse_laws(self, g3):
        gamma = gf.enumerate_bisections(g3)
        e = gf.identity_bisection(g3)
        for a in gamma:
            assert gf.bisection_product(g3, a, e) == a
            assert gf.bisection_product(g3, e, a) == a
            assert gf.bisection_product(g3, a, gf.bisection_inverse(g3, a)) == e

    def test_group_axioms_exhaustive(self, g4):
        gamma = gf.enumerate_bisections(g4)
        assert len(gamma) == 24
        table = set(gamma)
        e = gf.identity_bisection(g4)
        assert e in table
        products = {}
        for a in gamma:
            assert gf.bisection_inverse(g4, a) in table
            for b in gamma:
                ab = gf.bisection_product(g4, a, b)
                assert ab in table
                products[(a, b)] = ab
        for a in gamma:
            for b in gamma:
                for c in gamma:
                    assert products[(products[(a, b)], c)] == products[(a, products[(b, c)])]

    def test_product_matches_symmetric_group(self, g3):
        # canonical bijection: a -> (source -> range along a); products compose
        gamma = gf.enumerate_bisections(g3)
        to_perm = {}
        for a in gamma:
            sigma = gf.source_permutation(g3, a)
            to_perm[a] = tuple(np.argsort(sigma))
        assert len(set(to_perm.values())) == 6
        for a in gamma:
            for b in gamma:
                ab = gf.bisection_product(g3, a, b)
                composed = tuple(to_perm[a][to_perm[b][u]] for u in range(3))
                assert to_perm[ab] == composed


class TestBisectionThrough:
    def test_every_arrow_of_valid_groupoids(self, g3, bundle23, transf):
        for g in (g3, bundle23, transf):
            for x in range(g.n_arrows):
                b = gf.bisection_through(g, x)
                assert b is not None
                assert x in b.picks
                assert gf.is_bisection(g, b.picks)

    def test_unit_arrow_lies_on_identity(self, g3):
        e = gf.identity_bisection(g3)
        for u in range(g3.n_units):
            x = int(g3.unit_arrows[u])
            assert x in e.picks
            assert gf.bisection_through(g3, x) is not None

    def test_forced_arrow_unmatchable(self):
        g = forced_arrow_structure()
        assert gf.bisection_through(g, 3) is None
        assert bisections_through_brute_force(g, 3) == []
        # the structure still has its identity bisection
        assert gf.bisection_through(g, 0) is not None


class TestHaarInvariance:
    @pytest.mark.parametrize("gname", ["g3", "weighted_bundle", "transf"])
    def test_left_translation_identity_on_basis(self, gname, request):
        g = request.getfixturevalue(gname)
        for x in range(g.n_arrows):
            s_fiber = g.r_fibers[int(g.source_of[x])]
            r_fiber = g.r_fibers[int(g.range_of[x])]
            for z in range(g.n_arrows):
                f = gf.delta(g, z)
                lhs = np.sum(g.weights[s_fiber] * f[g.compose_table[x, s_fiber]])
                rhs = np.sum(g.weights[r_fiber] * f[r_fiber])
                assert abs(lhs - rhs) < 1e-12
