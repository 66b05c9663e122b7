import warnings

import numpy as np
import pytest

import gfourier as gf
from conftest import (
    no_bisection_structure,
    random_function,
    range_weighted_pair3,
    s3_on_three_points,
)
from reference import (
    commutant_oracle,
    d_inner_oracle,
    left_delta_ops_oracle,
    module_map_matrix_oracle,
    right_delta_ops_oracle,
    vn_commutation_defect_oracle,
)

TOL = 1e-10


class TestDInner:
    def test_self_pairing_nonnegative(self, weighted_bundle, rng):
        xi = random_function(weighted_bundle, rng)
        vals = gf.d_inner(weighted_bundle, xi, xi)
        assert np.all(vals.real >= 0) and np.abs(vals.imag).max() < 1e-12

    def test_pair_groupoid_formula(self, g3, rng):
        a, b = random_function(g3, rng), random_function(g3, rng)
        got = gf.d_inner(g3, a, b)
        expect = (a.reshape(3, 3).conj() * b.reshape(3, 3)).sum(axis=1)
        assert np.abs(got - expect).max() < 1e-13

    def test_module_axiom(self, g3, rng):
        xi, eta = random_function(g3, rng), random_function(g3, rng)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        acted = gf.module_action(g3, b, eta, "right")
        assert np.allclose(gf.d_inner(g3, xi, acted), gf.d_inner(g3, xi, eta) * b)

    def test_matches_oracle(self, weighted_bundle, rng):
        xi, eta = random_function(weighted_bundle, rng), random_function(weighted_bundle, rng)
        assert np.abs(
            gf.d_inner(weighted_bundle, xi, eta) - d_inner_oracle(weighted_bundle, xi, eta)
        ).max() < 1e-12


class TestRightOp:
    def test_identity_of_convolution(self, g3):
        r = gf.right_op(g3, gf.convolution_identity(g3))
        assert np.allclose(r, np.eye(9))

    @pytest.mark.parametrize("gname", ["g3", "bundle23", "weighted_bundle"])
    def test_norm_bounded_by_i_norm(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        for _ in range(20):
            f = random_function(g, rng)
            assert gf.operator_norm(g, gf.right_op(g, f)) <= gf.i_norm(g, f) + 1e-9

    def test_adjoint_relation(self, weighted_bundle, rng):
        g = weighted_bundle
        for _ in range(10):
            f, h, k = (random_function(g, rng) for _ in range(3))
            lhs = gf.d_inner(g, gf.right_op(g, f) @ h, k)
            rhs = gf.d_inner(g, h, gf.right_op(g, gf.star(g, f)) @ k)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_antirepresentation(self, g3, rng):
        f, h = random_function(g3, rng), random_function(g3, rng)
        lhs = gf.right_op(g3, gf.convolve(g3, f, h))
        rhs = gf.right_op(g3, h) @ gf.right_op(g3, f)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestLeftOp:
    def test_identity(self, g3):
        assert np.allclose(gf.left_op(g3, gf.convolution_identity(g3)), np.eye(9))

    def test_commutes_with_right_ops(self, g3, rng):
        for _ in range(10):
            f, h = random_function(g3, rng), random_function(g3, rng)
            lf, rh = gf.left_op(g3, f), gf.right_op(g3, h)
            assert np.abs(lf @ rh - rh @ lf).max() < 1e-12

    def test_left_matrix_product_on_pair_groupoid(self, g3, rng):
        f, h = random_function(g3, rng), random_function(g3, rng)
        got = (gf.left_op(g3, f) @ h).reshape(3, 3)
        assert np.allclose(got, f.reshape(3, 3) @ h.reshape(3, 3))

    def test_multiplicative(self, bundle23, rng):
        f, h = random_function(bundle23, rng), random_function(bundle23, rng)
        lhs = gf.left_op(bundle23, gf.convolve(bundle23, f, h))
        rhs = gf.left_op(bundle23, f) @ gf.left_op(bundle23, h)
        assert np.abs(lhs - rhs).max() < 1e-12

    @pytest.mark.parametrize("gname", ["g3", "weighted_bundle"])
    def test_section_norm_bound_probes(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        f = random_function(g, rng)
        bound = gf.i_norm_range(g, f)
        lf = gf.left_op(g, f)
        for _ in range(200):
            xi = random_function(g, rng)
            assert gf.section_norm(g, lf @ xi) <= bound * gf.section_norm(g, xi) + 1e-9


class TestReducedNorm:
    def test_all_ones_two_points(self, g2):
        assert gf.reduced_norm(g2, np.ones(4)) == pytest.approx(2.0)

    def test_identity_element(self, g3, weighted_bundle):
        for g in (g3, weighted_bundle):
            assert gf.reduced_norm(g, gf.convolution_identity(g)) == pytest.approx(1.0)

    @pytest.mark.parametrize("gname", ["g3", "bundle23", "weighted_bundle"])
    def test_cstar_identity(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        for _ in range(10):
            f = random_function(g, rng)
            lhs = gf.reduced_norm(g, gf.convolve(g, gf.star(g, f), f))
            assert lhs == pytest.approx(gf.reduced_norm(g, f) ** 2, abs=1e-9, rel=1e-9)


class TestOperatorNorm:
    @staticmethod
    def _weighted_right_op(scale):
        g = gf.pair_groupoid(3).with_unit_weights([1.0, 4.0, 0.5])
        return g, gf.right_op(g, np.ones(g.n_arrows)) * scale

    def test_rejects_a_non_finite_entry(self, capfd):
        g, op = self._weighted_right_op(1.0)
        op[0, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"entry \(0, 1\) is not finite"):
                gf.operator_norm(g, op)
        assert capfd.readouterr() == ("", "")

    def test_an_overflowing_weighted_tilt_raises(self, capfd):
        # the entries are finite, their tilt by sqrt(w(x) / w(t)) is not
        g, op = self._weighted_right_op(4e307)
        assert np.isfinite(op).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the norm overflows"):
                gf.operator_norm(g, op)
        assert capfd.readouterr() == ("", "")


class TestOperatorNormBounds:
    def test_rejects_a_non_finite_entry(self, capfd):
        g, op = TestOperatorNorm._weighted_right_op(1.0)
        op[0, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"entry \(0, 1\) is not finite"):
                gf.operator_norm_bounds(g, op)
        assert capfd.readouterr() == ("", "")

    def test_an_overflowing_weighted_tilt_raises(self, capfd):
        # the entries are finite, their tilt and the probe images are not
        g, op = TestOperatorNorm._weighted_right_op(4e307)
        assert np.isfinite(op).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the norm overflows"):
                gf.operator_norm_bounds(g, op)
        assert capfd.readouterr() == ("", "")

    def test_sandwich_and_exactness_on_block_diagonal(self, weighted_bundle, rng):
        g = weighted_bundle
        f = random_function(g, rng)
        r = gf.right_op(g, f)
        lower, upper = gf.operator_norm_bounds(g, r, probes=200, seed=3)
        exact = gf.operator_norm(g, r)
        assert lower <= exact + 1e-9
        assert upper == pytest.approx(exact, rel=1e-9)

    def test_brackets_left_convolution(self, g3, rng):
        f = random_function(g3, rng)
        lf = gf.left_op(g3, f)
        lower, upper = gf.operator_norm_bounds(g3, lf, probes=200, seed=4)
        assert 0 < lower <= upper + 1e-12
        for _ in range(100):
            xi = random_function(g3, rng)
            assert gf.section_norm(g3, lf @ xi) <= upper * gf.section_norm(g3, xi) + 1e-9


class TestSpans:
    def test_right_op_basis_dimension(self, g3):
        assert gf.span_dim(gf.right_delta_ops(g3)) == 9

    def test_left_op_basis_dimension(self, g3):
        assert gf.span_dim(gf.left_delta_ops(g3)) == 9

    def test_identity_alone(self):
        assert gf.span_dim([np.eye(4)]) == 1

    def test_intersection_idempotent(self, g2):
        basis = gf.reduced_algebra_basis(g2)
        inter = gf.intersect_spans(basis, basis)
        assert len(inter) == len(basis)
        for m in inter:
            assert gf.regular.in_span(basis, m)


COMMUTANT_CASES = {
    **{f"pair{n}": lambda n=n: gf.pair_groupoid(n) for n in (1, 2, 3, 4)},
    "z2": lambda: gf.group_groupoid(gf.cyclic_table(2)),
    "z3": lambda: gf.group_groupoid(gf.cyclic_table(3)),
    "bundle23": lambda: gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)]),
    "weighted_bundle": lambda: gf.group_bundle(
        [gf.cyclic_table(2), gf.cyclic_table(3)], unit_weights=[2.0, 0.5]
    ),
    "transf": lambda: gf.transformation_groupoid(
        gf.cyclic_table(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    ),
    "s3_on_3": s3_on_three_points,
    "pair3_x_i2": lambda: gf.product_with_pair_groupoid(gf.pair_groupoid(3)),
    "weighted_pair3": lambda: gf.pair_groupoid(3, unit_weights=[1.0, 2.0, 0.5]),
    "no_bisection": no_bisection_structure,
    "range_weighted_pair3": range_weighted_pair3,
}


def _same_span(a, b):
    return len(a) == len(b) and all(gf.regular.in_span(a, m, 1e-10) for m in b) and all(
        gf.regular.in_span(b, m, 1e-10) for m in a
    )


class TestCommutant:
    def test_empty_generators_give_full_matrix_space(self):
        basis = gf.commutant([], 3)
        assert len(basis) == 9
        assert np.array_equal(np.stack(basis).reshape(9, 9), np.eye(9))

    @pytest.mark.parametrize("name", sorted(set(COMMUTANT_CASES) - {"pair3_x_i2"}))
    def test_matches_kronecker_oracle(self, name):
        g = COMMUTANT_CASES[name]()
        ops = right_delta_ops_oracle(g)
        got = gf.commutant(ops, g.n_arrows)
        assert _same_span(got, commutant_oracle(ops, g.n_arrows))
        flat = np.stack([m.ravel() for m in got])
        assert np.abs(flat.conj() @ flat.T - np.eye(len(got))).max() < 1e-12

    def test_matches_kronecker_oracle_on_two_generators(self):
        # pair(3) x I2 is principal and transitive on 6 units.  Its right
        # convolution algebra is generated by a unit function with distinct
        # values and a cyclic shift through the units, so the oracle needs two
        # generators (a 2592 x 1296 system) instead of 36 (46656 x 1296)
        g = COMMUTANT_CASES["pair3_x_i2"]()
        n = g.n_units
        d = np.zeros(g.n_arrows)
        d[g.unit_arrows] = np.arange(1, n + 1)
        shift = np.zeros(g.n_arrows)
        for u in range(n):
            shift[np.flatnonzero((g.range_of == (u + 1) % n) & (g.source_of == u))[0]] = 1.0
        want = commutant_oracle([gf.right_op(g, d), gf.right_op(g, shift)], g.n_arrows)
        got = gf.vn_basis(g)
        assert len(got) == 36
        assert _same_span(got, want)

    def test_range_weights_shrink_the_commutant(self):
        g = range_weighted_pair3()
        assert not gf.validate(g).ok
        assert len(gf.vn_basis(g)) == len(commutant_oracle(gf.right_delta_ops(g), 9)) == 3

    def test_weighted_shift_ties_positions_by_scale(self):
        # a^2 = 2: the commutant is span{1, a}, with the tie T[0,1] = 2 T[1,0]
        a = np.array([[0.0, 2.0], [1.0, 0.0]])
        got = gf.commutant([a], 2)
        assert np.allclose(got[1], a / np.sqrt(5), atol=1e-15)

    @pytest.mark.parametrize(
        "a, dim",
        [
            (np.array([[0.0, 2.0], [1.0, 0.0]]), 2),
            # a weighted 4-cycle: ties chain through four positions with scales
            (np.roll(np.diag([1.0, 2.0, 3.0, 4.0j]), 1, axis=0), 4),
            # one arrow: forced zeros from the empty rows and the empty columns
            (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 3),
            (np.diag([1.0, 2.0, 2.0]), 3),
        ],
    )
    def test_matches_oracle_on_single_generators(self, a, dim):
        got = gf.commutant([a], dim)
        for m in got:
            assert np.abs(m @ a - a @ m).max() < 1e-14
        # the oracle's row-major Kronecker rows solve T a^T = a^T T, so its
        # transposes span the commutant of a
        assert _same_span(got, [m.T for m in commutant_oracle([a], dim)])

    def test_rejects_two_nonzeros_in_a_column(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = bad[2, 1] = 1.0
        with pytest.raises(ValueError, match="generator 1 .* column 1 has 2 nonzero"):
            gf.commutant([np.eye(3), bad], 3)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            gf.commutant([np.eye(2)], 3)

    @pytest.mark.parametrize("n", [6, 8])
    def test_large_pair_groupoid_dimension(self, n):
        vn = gf.vn_basis(gf.pair_groupoid(n))
        assert len(vn) == n * n
        flat = np.stack([m.ravel() for m in vn])
        assert np.abs(flat.conj() @ flat.T - np.eye(n * n)).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(COMMUTANT_CASES))
    def test_right_delta_ops_match_dense_loop(self, name):
        g = COMMUTANT_CASES[name]()
        if name == "no_bisection":
            # arrow 1 (1 <- 0) is its own claimed inverse and 1 . 1 is undefined,
            # so right convolution is not defined there
            with pytest.raises(gf.UndefinedProductError, match=r"arrows 1 = inverse\(1\) and 1 "):
                gf.right_delta_ops(g)
            return
        for got, want in zip(gf.right_delta_ops(g), right_delta_ops_oracle(g), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(COMMUTANT_CASES))
    def test_left_delta_ops_match_dense_loop(self, name):
        g = COMMUTANT_CASES[name]()
        if name == "no_bisection":
            with pytest.raises(gf.UndefinedProductError, match=r"arrows 1 = inverse\(1\) and 1 "):
                gf.left_delta_ops(g)
            return
        for got, want in zip(gf.left_delta_ops(g), left_delta_ops_oracle(g), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pair_groupoid_commutant_is_left_algebra(self, n):
        g = gf.pair_groupoid(n)
        vn = gf.vn_basis(g)
        left = gf.span_basis(gf.left_delta_ops(g))
        assert len(vn) == n * n == len(left)
        for m in left:
            assert gf.regular.in_span(vn, m)
        for m in vn:
            assert gf.regular.in_span(left, m)

    def test_bundle_commutant_is_left_algebra(self, bundle23):
        vn = gf.vn_basis(bundle23)
        left = gf.span_basis(gf.left_delta_ops(bundle23))
        assert len(vn) == len(left)
        for m in vn:
            assert gf.regular.in_span(left, m)

    def test_intersection_with_reduced_algebra(self, g2, g3, z2):
        for g, expected in ((g2, 1), (g3, 1)):
            inter = gf.intersect_spans(gf.vn_basis(g), gf.reduced_algebra_basis(g))
            assert len(inter) == expected
            assert gf.regular.in_span(inter, np.eye(g.n_arrows, dtype=complex))
        # abelian group: left and right algebras coincide
        inter = gf.intersect_spans(gf.vn_basis(z2), gf.reduced_algebra_basis(z2))
        assert len(inter) == 2


class TestAdjointable:
    def test_right_ops_are_adjointable_with_star_adjoint(self, weighted_bundle, rng):
        g = weighted_bundle
        f = random_function(g, rng)
        r = gf.right_op(g, f)
        assert gf.is_adjointable(g, r)
        assert np.abs(gf.adjoint_op(g, r) - gf.right_op(g, gf.star(g, f))).max() < 1e-12

    def test_adjointable_subspace_dimension(self, g3):
        # block-diagonal elementary operators span the adjointable operators
        mats = []
        for fiber in g3.r_fibers:
            for i in fiber:
                for j in fiber:
                    m = np.zeros((9, 9), dtype=complex)
                    m[i, j] = 1.0
                    mats.append(m)
        assert gf.span_dim(mats) == 27
        for m in mats:
            assert gf.is_adjointable(g3, m)

    def test_generic_left_op_not_adjointable(self, g2):
        lf = gf.left_op(g2, gf.delta(g2, 1))  # point mass at arrow (0,1)
        assert not gf.is_adjointable(g2, lf)
        with pytest.raises(ValueError):
            gf.adjoint_op(g2, lf)

    def test_adjoint_pairing(self, weighted_bundle, rng):
        g = weighted_bundle
        f = random_function(g, rng)
        t_op = gf.right_op(g, f)
        xi, eta = random_function(g, rng), random_function(g, rng)
        lhs = gf.d_inner(g, t_op @ xi, eta)
        rhs = gf.d_inner(g, xi, gf.adjoint_op(g, t_op) @ eta)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestExtractMultiplier:
    def test_scalar_multiple_of_identity(self):
        k = gf.extract_multiplier(2.0 * np.eye(3))
        assert np.allclose(k, 2.0)

    def test_diagonal(self):
        k = gf.extract_multiplier(np.diag([1.0, -1.0]))
        assert np.allclose(k, [1.0, -1.0])

    def test_off_diagonal_rejected_with_witness(self):
        r = np.eye(3, dtype=complex)
        r[0, 2] = 0.5
        with pytest.raises(ValueError, match="point 0"):
            gf.extract_multiplier(r)


class TestOperatorToModuleMap:
    def test_identity_operator_restricts_to_units(self, g3, rng):
        alpha = gf.operator_to_module_map(g3, np.eye(9, dtype=complex))
        phi = random_function(g3, rng)
        assert np.allclose(alpha(phi), phi[g3.unit_arrows])

    def test_left_op_gives_inner_pairing(self, g3, rng):
        f = random_function(g3, rng)
        alpha = gf.operator_to_module_map(g3, gf.left_op(g3, f))
        phi = random_function(g3, rng)
        assert np.abs(alpha(phi) - gf.d_inner(g3, f, phi)).max() < 1e-12

    def test_induced_map_satisfies_right_module_law(self, g3, rng):
        for t_op in gf.vn_basis(g3)[:4]:
            alpha = gf.operator_to_module_map(g3, t_op)
            phi = random_function(g3, rng)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = alpha(gf.module_action(g3, b, phi, "right"))
            assert np.abs(lhs - alpha(phi) * b).max() < 1e-12

    @pytest.mark.parametrize("gname", ["g3", "weighted_bundle", "transf"])
    def test_pairing_identity(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        for t_op in gf.vn_basis(g)[:4]:
            alpha = gf.operator_to_module_map(g, t_op)
            for _ in range(5):
                f, h = random_function(g, rng), random_function(g, rng)
                lhs = alpha(gf.convolve(g, h, gf.star(g, f)))
                rhs = gf.d_inner(g, t_op @ f, h)
                assert np.abs(lhs - rhs).max() < TOL

    def test_injective_on_commutant(self, g3, bundle23):
        for g in (g3, bundle23):
            vn = gf.vn_basis(g)
            rows = np.stack([gf.operator_to_module_map(g, t).matrix.ravel() for t in vn])
            assert np.linalg.matrix_rank(rows, tol=1e-9) == len(vn)

    @pytest.mark.parametrize("name", ["pair3", "weighted_bundle", "transf", "s3_on_3"])
    def test_matches_dense_loops(self, name, rng):
        g = COMMUTANT_CASES[name]()
        ops = gf.vn_basis(g)[:4] + [gf.left_op(g, random_function(g, rng))]
        for op in ops:
            alpha = gf.operator_to_module_map(g, op)
            assert np.abs(alpha.matrix - module_map_matrix_oracle(g, op)).max() < 1e-12
        for op in ops + [random_function(g, rng)[:, None] * random_function(g, rng)[None, :]]:
            got = gf.regular.vn_commutation_defect(g, op)
            assert abs(got - vn_commutation_defect_oracle(g, op)) < 1e-12

    def test_rejects_operators_outside_commutant(self, g2):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="commute"):
            gf.operator_to_module_map(g2, bad)


class TestCommutantPairing:
    @pytest.mark.parametrize("gname", ["g2", "g3", "bundle23", "weighted_bundle"])
    def test_unit_restriction_identity(self, gname, request, rng):
        # conj of T(f * star(h)) at units equals <Tf, h>
        g = request.getfixturevalue(gname)
        for t_op in gf.vn_basis(g)[:6]:
            for _ in range(3):
                f, h = random_function(g, rng), random_function(g, rng)
                lhs, rhs = gf.regular.apply_operator_identity_check(g, t_op, f, h)
                assert np.abs(lhs - rhs).max() < TOL


class TestLeftPairingIdentity:
    @pytest.mark.parametrize("gname", ["g3", "weighted_bundle", "transf"])
    def test_weighted_fiber_pairing(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        for _ in range(10):
            f, xi, eta = (random_function(g, rng) for _ in range(3))
            coeff = gf.regular_coefficient(g, xi, eta)
            lhs = gf.d_inner(g, gf.left_op(g, f) @ xi, eta)
            rhs = np.array(
                [np.sum(g.weights[t] * np.conj(f[t]) * coeff[t]) for t in g.r_fibers]
            )
            assert np.abs(lhs - rhs).max() < TOL


class TestDimensionQuadruple:
    @pytest.mark.parametrize("n", [2, 3])
    def test_pair_groupoid_dimensions(self, n):
        g = gf.pair_groupoid(n)
        full = []
        for i in range(g.n_arrows):
            for j in range(g.n_arrows):
                m = np.zeros((g.n_arrows, g.n_arrows), dtype=complex)
                m[i, j] = 1.0
                full.append(m)
        adjointable = [m for m in full if gf.is_adjointable(g, m)]
        dims = (
            gf.span_dim(full),
            gf.span_dim(adjointable),
            len(gf.vn_basis(g)),
            len(gf.reduced_algebra_basis(g)),
        )
        assert dims == (n ** 4, n ** 3, n ** 2, n ** 2)
