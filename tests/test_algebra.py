import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfourier as gf
from conftest import random_function
from reference import convolve_oracle, triple_convolve_oracle


class TestConvolve:
    def test_matches_matrix_product_on_pair_groupoid(self, g3, rng):
        f, h = random_function(g3, rng), random_function(g3, rng)
        c = gf.convolve(g3, f, h)
        assert np.allclose(c.reshape(3, 3), f.reshape(3, 3) @ h.reshape(3, 3), atol=1e-13)

    def test_identity_element(self, g3, weighted_bundle, rng):
        for g in (g3, weighted_bundle):
            e = gf.convolution_identity(g)
            f = random_function(g, rng)
            assert np.abs(gf.convolve(g, e, f) - f).max() < 1e-12
            assert np.abs(gf.convolve(g, f, e) - f).max() < 1e-12

    @pytest.mark.parametrize("gname", ["g3", "bundle23", "weighted_bundle"])
    def test_associativity_against_triple_sum_oracle(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        for _ in range(10):
            f, h, k = (random_function(g, rng) for _ in range(3))
            expected = triple_convolve_oracle(g, f, h, k)
            left = gf.convolve(g, gf.convolve(g, f, h), k)
            right = gf.convolve(g, f, gf.convolve(g, h, k))
            assert np.abs(left - expected).max() < 1e-12
            assert np.abs(right - expected).max() < 1e-12

    @pytest.mark.parametrize("gname", ["g2", "z3", "bundle23", "weighted_bundle"])
    def test_against_factorization_oracle(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        f, h = random_function(g, rng), random_function(g, rng)
        assert np.abs(gf.convolve(g, f, h) - convolve_oracle(g, f, h)).max() < 1e-12

    def test_bilinearity(self, bundle23, rng):
        g = bundle23
        f, h, k = (random_function(g, rng) for _ in range(3))
        a, b = 1.5 - 2j, -0.25 + 1j
        lhs = gf.convolve(g, a * f + b * h, k)
        rhs = a * gf.convolve(g, f, k) + b * gf.convolve(g, h, k)
        assert np.abs(lhs - rhs).max() < 1e-12
        lhs = gf.convolve(g, k, a * f + b * h)
        rhs = a * gf.convolve(g, k, f) + b * gf.convolve(g, k, h)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_star_algebra_exhaustive_on_basis(self, g4, bundle23):
        # groupoids with at most 20 arrows: point-mass products settle the laws
        for g in (bundle23, g4):
            deltas = [gf.delta(g, x) for x in range(g.n_arrows)]
            for x in range(g.n_arrows):
                for y in range(g.n_arrows):
                    prod = gf.convolve(g, deltas[x], deltas[y])
                    anti = gf.star(g, prod)
                    expect = gf.convolve(
                        g, gf.star(g, deltas[y]), gf.star(g, deltas[x])
                    )
                    assert np.abs(anti - expect).max() < 1e-12
            for x in range(0, g.n_arrows, 2):
                for y in range(g.n_arrows):
                    for z in range(0, g.n_arrows, 2):
                        left = gf.convolve(g, gf.convolve(g, deltas[x], deltas[y]), deltas[z])
                        right = gf.convolve(g, deltas[x], gf.convolve(g, deltas[y], deltas[z]))
                        assert np.abs(left - right).max() < 1e-12


class TestInvolutions:
    def test_star_is_involutive(self, g3, rng):
        f = random_function(g3, rng)
        assert np.allclose(gf.star(g3, gf.star(g3, f)), f)

    def test_star_is_conjugate_transpose_on_pair_groupoid(self, g3, rng):
        f = random_function(g3, rng)
        assert np.allclose(gf.star(g3, f).reshape(3, 3), f.reshape(3, 3).conj().T)

    def test_star_antimultiplicative(self, bundle23, rng):
        f, h = random_function(bundle23, rng), random_function(bundle23, rng)
        lhs = gf.star(bundle23, gf.convolve(bundle23, f, h))
        rhs = convolve_oracle(bundle23, gf.star(bundle23, h), gf.star(bundle23, f))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_vee_inverts_without_conjugation(self, g2):
        f = np.array([1 + 2j, 3.0, 0.0, -1j])
        v = gf.vee(g2, f)
        assert v[1] == f[2] and v[2] == f[1]
        assert np.allclose(gf.vee(g2, v), f)


class TestINorms:
    def test_all_ones_on_two_points(self, g2):
        ones = np.ones(4)
        assert gf.i_norm_range(g2, ones) == pytest.approx(2.0)
        assert gf.i_norm_source(g2, ones) == pytest.approx(2.0)
        assert gf.i_norm(g2, ones) == pytest.approx(2.0)

    def test_point_mass_norm_is_its_weight(self, weighted_bundle):
        g = weighted_bundle
        for x in range(g.n_arrows):
            d = gf.delta(g, x)
            got = gf.i_norm(g, d)
            assert got == pytest.approx(
                max(float(g.weights[x]), float(g.weights[g.inverse_of[x]]))
            )
            assert gf.i_norm_range(g, d) == pytest.approx(float(g.weights[x]))

    def test_submultiplicative_on_100_random_pairs(self, g3, rng):
        for _ in range(100):
            f, h = random_function(g3, rng), random_function(g3, rng)
            lhs = gf.i_norm_range(g3, gf.convolve(g3, f, h))
            assert lhs <= gf.i_norm_range(g3, f) * gf.i_norm_range(g3, h) + 1e-9

    def test_star_isometry(self, weighted_bundle, rng):
        for _ in range(20):
            f = random_function(weighted_bundle, rng)
            assert gf.i_norm(weighted_bundle, gf.star(weighted_bundle, f)) == pytest.approx(
                gf.i_norm(weighted_bundle, f)
            )


class TestModuleAction:
    def test_constant_one_acts_trivially(self, g3, rng):
        f = random_function(g3, rng)
        ones = np.ones(3)
        assert np.allclose(gf.module_action(g3, ones, f, "left"), f)
        assert np.allclose(gf.module_action(g3, ones, f, "right"), f)

    @pytest.mark.parametrize("gname", ["g3", "weighted_bundle"])
    def test_action_slides_through_convolution(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        for _ in range(10):
            f, h = random_function(g, rng), random_function(g, rng)
            b = rng.standard_normal(g.n_units) + 1j * rng.standard_normal(g.n_units)
            lhs = gf.module_action(g, b, gf.convolve(g, f, h), "right")
            rhs = gf.convolve(g, gf.module_action(g, b, f, "right"), h)
            assert np.abs(lhs - rhs).max() < 1e-12
            lhs = gf.module_action(g, b, gf.convolve(g, f, h), "left")
            rhs = gf.convolve(g, f, gf.module_action(g, b, h, "left"))
            assert np.abs(lhs - rhs).max() < 1e-12


class TestBisectionAction:
    def test_identity_bisection_acts_trivially(self, g3, rng):
        f = random_function(g3, rng)
        e = gf.identity_bisection(g3)
        assert np.allclose(gf.act_bisection(g3, e, f, "left"), f)
        assert np.allclose(gf.act_bisection(g3, e, f, "right"), f)

    def test_flip_on_two_points_swaps_source_coordinate(self, g2, rng):
        flip = gf.Bisection((1, 2))  # arrows (0,1) and (1,0)
        f = random_function(g2, rng)
        acted = gf.act_bisection(g2, flip, f, "left")
        # af(i, j) = f(i, other j)
        expect = f.reshape(2, 2)[:, ::-1].ravel()
        assert np.allclose(acted, expect)

    def test_translation_slides_through_convolution(self, g3, rng):
        for a in gf.enumerate_bisections(g3):
            f, h = random_function(g3, rng), random_function(g3, rng)
            lhs = gf.act_bisection(g3, a, gf.convolve(g3, f, h), "left")
            rhs = gf.convolve(g3, f, gf.act_bisection(g3, a, h, "left"))
            assert np.abs(lhs - rhs).max() < 1e-12
            lhs = gf.act_bisection(g3, a, gf.convolve(g3, f, h), "right")
            rhs = gf.convolve(g3, gf.act_bisection(g3, a, f, "right"), h)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_group_action_law(self, g3, rng):
        gamma = gf.enumerate_bisections(g3)
        f = random_function(g3, rng)
        for a in gamma:
            for b in gamma:
                ab = gf.bisection_product(g3, a, b)
                left_composed = gf.act_bisection(g3, a, gf.act_bisection(g3, b, f, "left"), "left")
                assert np.allclose(gf.act_bisection(g3, ab, f, "left"), left_composed)
                right_composed = gf.act_bisection(
                    g3, b, gf.act_bisection(g3, a, f, "right"), "right"
                )
                assert np.allclose(gf.act_bisection(g3, ab, f, "right"), right_composed)


class TestConvolutionIdentity:
    def test_identity_matrix_on_pair_groupoid(self, g3):
        e = gf.convolution_identity(g3)
        assert np.allclose(e.reshape(3, 3), np.eye(3))

    def test_unit_i_norm(self, g3, weighted_bundle):
        assert gf.i_norm(g3, gf.convolution_identity(g3)) == pytest.approx(1.0)
        e = gf.convolution_identity(weighted_bundle)
        assert gf.i_norm(weighted_bundle, e) == pytest.approx(1.0)


@st.composite
def arrow_functions(draw, n):
    vals = draw(
        st.lists(
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(vals, dtype=complex)


class TestAlgebraProperties:
    @settings(max_examples=40, deadline=None)
    @given(f=arrow_functions(9), h=arrow_functions(9))
    def test_involution_isometry_and_antihom(self, f, h):
        g = gf.pair_groupoid(3)
        assert gf.i_norm(g, gf.star(g, f)) == pytest.approx(gf.i_norm(g, f))
        scale = max(1.0, gf.i_norm(g, f) * gf.i_norm(g, h))
        lhs = gf.star(g, gf.convolve(g, f, h))
        rhs = gf.convolve(g, gf.star(g, h), gf.star(g, f))
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    @settings(max_examples=40, deadline=None)
    @given(f=arrow_functions(5), h=arrow_functions(5))
    def test_submultiplicativity_property(self, f, h):
        g = gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)])
        lhs = gf.i_norm_range(g, gf.convolve(g, f, h))
        rhs = gf.i_norm_range(g, f) * gf.i_norm_range(g, h)
        assert lhs <= rhs * (1 + 1e-12) + 1e-9
