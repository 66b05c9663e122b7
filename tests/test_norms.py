import itertools

import numpy as np
import pytest

import gfourier as gf
from gfourier.norms import schur_problem, stieltjes_problem
from gfourier.sdp import DiagBoundSdp, SdpInfeasibleError, solve_diag_bound_sdp
from conftest import random_function, random_pd
from reference import brute_force_factorization_norm, schur_problem_oracle, stieltjes_problem_oracle


class TestHermitianEigen:
    def test_identity(self):
        vals, vecs = gf.hermitian_eigen(np.eye(3))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs @ vecs.conj().T, np.eye(3))

    def test_rank_one_all_ones(self):
        vals, _ = gf.hermitian_eigen(np.ones((2, 2)))
        assert np.allclose(vals, [2.0, 0.0])

    def test_trace_det_forced(self):
        vals, vecs = gf.hermitian_eigen(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.allclose(vals, [3.0, -1.0])
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert np.abs((vecs * vals) @ vecs.conj().T - m).max() < 1e-10

    def test_rejects_non_square_and_non_hermitian(self):
        with pytest.raises(ValueError):
            gf.hermitian_eigen(np.ones((2, 3)))
        with pytest.raises(ValueError):
            gf.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianSqrt:
    def test_identity(self):
        assert np.allclose(gf.hermitian_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(gf.hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_rank_one(self, rng):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        m = np.outer(x, x.conj())
        s = gf.hermitian_sqrt(m)
        # square roots of roundoff-size eigenvalues limit the closed form to ~1e-8
        assert np.abs(s - m / np.linalg.norm(x)).max() < 1e-7
        assert np.abs(s @ s - m).max() < 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            gf.hermitian_sqrt(np.diag([1.0, -0.5]))


def _one_block(data, var, objective) -> DiagBoundSdp:
    var = np.array([var])
    return DiagBoundSdp(np.array([data], dtype=complex), var, np.zeros(var.shape, dtype=bool),
                        np.array([var.shape[1]]), np.array(objective, dtype=int))


class TestSolveDiagBoundSdp:
    def test_two_by_two_completion(self):
        p = _one_block([[0, 1], [1, 0]], [[0, -1], [-1, 1]], [0, 1])
        sol = solve_diag_bound_sdp(p)
        assert sol.value == pytest.approx(1.0, abs=1e-6)

    def test_zero_data_answers_zero(self):
        p = _one_block([[0, 0], [0, 0]], [[0, -1], [-1, 1]], [0, 1])
        assert solve_diag_bound_sdp(p).value == 0.0

    def test_problem_without_objective_is_rejected(self):
        with pytest.raises(ValueError, match="no objective"):
            _one_block([[2, 1], [1, 2]], [[-1, -1], [-1, -1]], [])

    def test_objective_must_be_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            _one_block([[0, 0], [0, 0]], [[-1, 0], [0, -1]], [0])

    def test_infeasible_cap(self):
        # a diagonal entry fixed negative can never be completed
        p = _one_block([[-1, 0], [0, 0]], [[-1, -1], [-1, 0]], [0])
        with pytest.raises(SdpInfeasibleError):
            solve_diag_bound_sdp(p)

    def test_cross_validated_against_factorization_search(self, g2, rng):
        for i in range(3):
            phi = random_function(g2, rng)
            cb = gf.schur_cb_norm(phi.reshape(2, 2))
            brute = brute_force_factorization_norm(g2, phi, budget=40, seed=i)
            assert abs(cb.value - brute) <= 1e-5


def _s3_transformation():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(3))] for b in perms] for a in perms]
    return gf.transformation_groupoid(table, [list(p) for p in perms])


DUAL_GROUPOIDS = {
    "pair2": lambda: gf.pair_groupoid(2),
    "pair3": lambda: gf.pair_groupoid(3),
    "pair4": lambda: gf.pair_groupoid(4),
    "z4": lambda: gf.group_groupoid(gf.cyclic_table(4)),
    "z5": lambda: gf.group_groupoid(gf.cyclic_table(5)),
    "bundle23": lambda: gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)]),
    "weighted_bundle": lambda: gf.group_bundle(
        [gf.cyclic_table(2), gf.cyclic_table(3)], unit_weights=[2.0, 0.5]
    ),
    "transf_s3": _s3_transformation,
}


def _dual_report(problem: DiagBoundSdp, z: np.ndarray):
    """Re-verify a dual certificate from the problem's declaration alone.

    Returns (bound, worst equality residual, smallest eigenvalue), where the
    bound is -<F0, Z>, the residuals are <A_k, Z> for every free variable
    (real and imaginary part together) and <A_obj, Z> - 1.
    """
    zt = z.swapaxes(1, 2)
    bound = -float(np.sum(problem.data * zt).real)
    held = problem.var >= 0
    ids = problem.var[held]
    entry = np.where(problem.conj, zt.conj(), zt)[held]
    pairing = np.bincount(ids, entry.real) + 1j * np.bincount(ids, entry.imag)
    free = np.setdiff1d(ids, problem.objective)
    objective = float(pairing[problem.objective].real.sum())
    residual = max(float(np.abs(pairing[free]).max(initial=0.0)), abs(objective - 1.0))
    low = float(np.linalg.eigvalsh(z)[:, 0].min())
    return bound, residual, low


class TestDualCertificate:
    """The interior-point solve's dual blocks are PSD, exactly dual feasible,
    and bound the value from below to within the requested gap."""

    def _check(self, problem):
        sol = solve_diag_bound_sdp(problem)
        assert sol.status == "optimal"
        assert sol.probes == 1 and 0 < sol.iterations <= 100
        bound, residual, low = _dual_report(problem, sol.dual)
        scale = problem.data_scale()
        assert low >= -1e-12 * float(np.abs(sol.dual).max())
        assert residual <= 1e-12 * scale
        assert bound == pytest.approx(sol.lower, rel=1e-12, abs=1e-12)
        assert bound <= sol.value
        assert (sol.value - bound) / sol.value <= 1e-7
        assert problem.min_eigenvalue(sol.variables) >= 0.0

    @pytest.mark.parametrize("name", sorted(DUAL_GROUPOIDS))
    def test_stieltjes_problems(self, name, rng):
        g = DUAL_GROUPOIDS[name]()
        for _ in range(2):
            self._check(stieltjes_problem(g, random_function(g, rng)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_schur_problems(self, n, rng):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self._check(schur_problem(a))

    def test_stops_at_a_lower_bound_it_reaches(self, rng):
        # rank one: the cb norm is |x|_inf |y|_inf, the sup norm
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = np.outer(x, y.conj())
        sup = float(np.abs(a).max())
        full = solve_diag_bound_sdp(schur_problem(a))
        early = solve_diag_bound_sdp(schur_problem(a), lower=sup)
        assert early.iterations < full.iterations
        assert sup <= early.value <= sup * (1 + 1e-7)
        assert early.lower >= sup

    def test_seeded_exit_reports_the_given_lower_bound(self, g3, rng):
        cert = gf.fourier_stieltjes_norm(g3, random_pd(g3, rng))
        assert cert.witness["status"] == "seeded"
        assert cert.witness["iterations"] == 0
        assert cert.witness["lower"] == pytest.approx(cert.value, rel=1e-12)


class TestSchurCbNorm:
    def test_all_ones_is_one(self):
        for n in (2, 3, 4):
            assert gf.schur_cb_norm(np.ones((n, n))).value == pytest.approx(1.0, abs=1e-6)

    def test_diagonal_takes_max_modulus(self):
        assert gf.schur_cb_norm(np.diag([1.0, -3.0, 2.0])).value == pytest.approx(3.0, abs=1e-7)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_one_factors(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cert = gf.schur_cb_norm(np.outer(x, y.conj()))
        expect = np.abs(x).max() * np.abs(y).max()
        assert cert.value == pytest.approx(expect, rel=1e-6, abs=1e-7)

    def test_rank_one_against_search_oracle(self, g2, rng):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = np.outer(x, y.conj())
        cert = gf.schur_cb_norm(a)
        brute = brute_force_factorization_norm(g2, a.ravel(), budget=40, seed=5)
        assert abs(cert.value - brute) <= 1e-5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite_entries(self, bad):
        a = np.ones((3, 3), dtype=complex)
        a[1, 2] = bad
        with pytest.raises(ValueError, match=r"entry \(1, 2\) is not finite"):
            gf.schur_cb_norm(a)

    def test_witness_factorization_reconstructs(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cert = gf.schur_cb_norm(a)
        left, right = cert.witness["left"], cert.witness["right"]
        back = left @ right.conj().T
        assert np.abs(back - a).max() < 1e-8
        row_bound = np.sqrt(cert.value) + 1e-6
        assert np.linalg.norm(left, axis=1).max() <= row_bound
        assert np.linalg.norm(right, axis=1).max() <= row_bound


SCALES = [1e-12, 1e-8, 1e-4, 1e4]
SCALE_GROUPOIDS = ["g3", "z3", "bundle23", "transf"]


class TestDataScale:
    """Every tolerance is relative to the data, so scaling it scales every
    value and every certificate."""

    def test_small_schur_value_is_the_optimum(self):
        # an absolute floor on the gap target once stopped this solve at its
        # first feasible iterate, 28% above the optimum
        a = np.array([[1.0, 2.0], [3.0, -4.0]])
        expect = 1e-8 * gf.schur_cb_norm(a).value
        assert gf.schur_cb_norm(1e-8 * a).value == pytest.approx(expect, rel=1e-6)

    def test_small_upper_bound_is_above_the_exact_norm(self):
        # on Z_4 the norm is the l1 sum of the Fourier coefficients; an
        # absolute floor on the reconstruction test once let terms that do not
        # reproduce phi through, whose cost fell below the norm
        g = gf.group_groupoid(gf.cyclic_table(4))
        phi = 1e-12 * np.exp(2j * np.pi * np.random.default_rng(0).random(4))
        exact = float(np.abs(np.fft.fft(phi)).sum() / 4)
        lower, upper = gf.fourier_norm_bounds(g, phi)
        assert lower.value <= exact <= upper.value
        assert lower.value == pytest.approx(exact, rel=1e-7)

    @pytest.mark.parametrize("s", SCALES)
    def test_schur_cb_norm(self, s, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        base = gf.schur_cb_norm(a).value
        assert gf.schur_cb_norm(s * a).value / s == pytest.approx(base, rel=1e-6)

    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("gname", SCALE_GROUPOIDS)
    def test_fourier_stieltjes_norm(self, s, gname, request, rng):
        g = request.getfixturevalue(gname)
        phi = random_function(g, rng)
        base = gf.fourier_stieltjes_norm(g, phi).value
        assert gf.fourier_stieltjes_norm(g, s * phi).value / s == pytest.approx(base, rel=1e-6)

    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("gname", SCALE_GROUPOIDS)
    def test_fourier_norm_bounds(self, s, gname, request, rng):
        # conjugation-symmetric inputs too: at small scales the positivity
        # verdict's absolute floor accepts them, and the square-root candidate
        # that follows does not reproduce phi
        g = request.getfixturevalue(gname)
        base = random_function(g, rng)
        for phi in (s * base, s * (base + gf.star(g, base)) / 2):
            lower, upper = gf.fourier_norm_bounds(g, phi)
            sup = float(np.abs(phi).max())
            assert sup <= lower.value <= upper.value
            total = sum(gf.regular_coefficient(g, f, h) for f, h in upper.witness["terms"])
            assert np.abs(total - phi).max() <= 1e-8 * sup


FIXTURE_GROUPOIDS = ["g2", "g3", "g4", "z2", "z3", "bundle23", "weighted_bundle", "transf"]


def _assert_same_blocks(new, old, key_id, real, rng):
    """The array declaration and the entry-by-entry one declare the same
    problem: the same objective, and the same blocks up to their order for
    random assignments by id (real where the variable is)."""
    assert sorted(map(key_id, old._objective)) == sorted(new.objective.tolist())
    for _ in range(3):
        v = rng.standard_normal(real.size) + 1j * rng.standard_normal(real.size)
        v[real] = v[real].real
        stack = new.blocks_for(v)
        unmatched = [stack[b, :k, :k] for b, k in enumerate(new.sizes)]
        want = old.blocks_for({key: v[key_id(key)] for key in old._var_occ})
        assert len(unmatched) == len(want)
        for block in want:
            hits = [i for i, m in enumerate(unmatched)
                    if m.shape == block.shape and np.array_equal(m, block)]
            assert hits, "a block of the entry-by-entry declaration has no match"
            unmatched.pop(hits[0])


class TestArrayDeclaration:
    @pytest.mark.parametrize("gname", FIXTURE_GROUPOIDS)
    def test_stieltjes_problem_matches_entry_builder(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        phi = random_function(g, rng)
        n = g.n_arrows
        arrow = np.arange(2 * n) % n
        _assert_same_blocks(stieltjes_problem(g, phi), stieltjes_problem_oracle(g, phi),
                            lambda key: key[1] + (n if key[0] == "t" else 0),
                            g.inverse_of[arrow] == arrow, rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_schur_problem_matches_entry_builder(self, n, rng):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        position = np.arange(2 * n * n) % (n * n)
        _assert_same_blocks(schur_problem(a), schur_problem_oracle(a),
                            lambda key: (key[0] == "q") * n * n + key[1] * n + key[2],
                            position // n == position % n, rng)


class TestFourierStieltjesNorm:
    @pytest.mark.parametrize("gname", ["g2", "g3", "bundle23", "weighted_bundle", "transf"])
    def test_positive_definite_value_is_max_unit_value(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        for _ in range(3):
            phi = random_pd(g, rng)
            cert = gf.fourier_stieltjes_norm(g, phi)
            expect = float(np.max(phi[g.unit_arrows].real))
            assert cert.value == pytest.approx(expect, abs=1e-6)

    def test_single_off_diagonal_point_mass(self, g2):
        cert = gf.fourier_stieltjes_norm(g2, gf.delta(g2, 1))
        assert cert.value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_schur_multiplier_norm(self, n, rng):
        g = gf.pair_groupoid(n)
        for _ in range(2):
            phi = random_function(g, rng)
            phi = (phi + gf.star(g, phi)) / 2  # conjugation-symmetric data
            fs = gf.fourier_stieltjes_norm(g, phi)
            cb = gf.schur_cb_norm(phi.reshape(n, n))
            assert abs(fs.value - cb.value) <= 1e-5

    def test_sup_norm_lower_bound(self, bundle23, rng):
        for _ in range(5):
            phi = random_function(bundle23, rng)
            cert = gf.fourier_stieltjes_norm(bundle23, phi)
            assert cert.value >= np.abs(phi).max() - 1e-9

    def test_conjugation_and_involution_symmetry(self, g3, rng):
        phi = random_function(g3, rng)
        base = gf.fourier_stieltjes_norm(g3, phi).value
        assert gf.fourier_stieltjes_norm(g3, np.conj(phi)).value == pytest.approx(base, abs=1e-6)
        assert gf.fourier_stieltjes_norm(g3, gf.star(g3, phi)).value == pytest.approx(
            base, abs=1e-6
        )

    @pytest.mark.parametrize("gname", ["g3", "bundle23"])
    def test_witness_blocks_are_feasible(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        phi = random_function(g, rng)
        cert = gf.fourier_stieltjes_norm(g, phi)
        rho, tau = cert.witness["rho"], cert.witness["tau"]
        # conjugation symmetry of the completion functions
        assert np.abs(gf.star(g, rho) - rho).max() < 1e-9
        assert np.abs(gf.star(g, tau) - tau).max() < 1e-9
        embedded = gf.off_diagonal_embed(g, rho, phi, tau)
        prod = gf.product_with_pair_groupoid(g)
        assert gf.is_positive_definite(prod, embedded, tol=1e-8)
        top = max(float(rho[g.unit_arrows].real.max()), float(tau[g.unit_arrows].real.max()))
        assert top == pytest.approx(cert.value, rel=1e-6, abs=1e-9)

    def test_doubled_split_reconstructs_on_self_inverse_arrows(self, bundle23, rng):
        # the two-term decomposition through the doubled groupoid must survive
        # fibers containing self-inverse arrows
        phi = random_function(bundle23, rng)
        cert = gf.fourier_stieltjes_norm(bundle23, phi)
        terms = gf.norms._doubled_terms(bundle23, cert, phi)
        total = sum(gf.regular_coefficient(bundle23, f, h) for f, h in terms)
        assert np.abs(total - phi).max() < 1e-7
        cost = sum(gf.section_norm(bundle23, f) * gf.section_norm(bundle23, h)
                   for f, h in terms)
        assert cost <= 2 * cert.value + 1e-6

    def test_module_rescaling_bound(self, g3, rng):
        phi = random_function(g3, rng)
        b = rng.uniform(0.3, 1.0, size=3)
        scaled = gf.module_action(g3, b, phi, "right")
        lhs = gf.fourier_stieltjes_norm(g3, scaled).value
        rhs = gf.fourier_stieltjes_norm(g3, phi).value * float(b.max())
        assert lhs <= rhs + 1e-6

    def test_deterministic(self, g3, rng):
        phi = random_function(g3, rng)
        a = gf.fourier_stieltjes_norm(g3, phi)
        b = gf.fourier_stieltjes_norm(g3, phi)
        assert a.value == b.value
        assert np.array_equal(a.witness["rho"], b.witness["rho"])


class TestFourierNormBounds:
    def test_single_coefficient_bracketing(self, g3, rng):
        f, h = random_function(g3, rng), random_function(g3, rng)
        phi = gf.regular_coefficient(g3, f, h)
        lower, upper = gf.fourier_norm_bounds(g3, phi)
        assert lower.value >= np.abs(phi).max() - 1e-9
        assert upper.value <= gf.section_norm(g3, f) * gf.section_norm(g3, h) + 1e-6
        assert lower.value <= upper.value + 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_pair_groupoid_bracket_meets_cb_norm(self, n, rng):
        g = gf.pair_groupoid(n)
        for _ in range(2):
            phi = random_function(g, rng)
            lower, upper = gf.fourier_norm_bounds(g, phi)
            cb = gf.schur_cb_norm(phi.reshape(n, n))
            assert lower.value == pytest.approx(cb.value, abs=1e-4)
            assert upper.value == pytest.approx(cb.value, abs=1e-4)

    def test_zero_function(self, g3):
        lower, upper = gf.fourier_norm_bounds(g3, np.zeros(9))
        assert lower.value == 0.0 and upper.value == 0.0

    def test_upper_witness_terms_reconstruct(self, bundle23, rng):
        phi = random_function(bundle23, rng)
        _, upper = gf.fourier_norm_bounds(bundle23, phi)
        total = np.zeros(bundle23.n_arrows, dtype=complex)
        cost = 0.0
        for f, h in upper.witness["terms"]:
            total += gf.regular_coefficient(bundle23, f, h)
            cost += gf.section_norm(bundle23, f) * gf.section_norm(bundle23, h)
        assert np.abs(total - phi).max() < 1e-8 * max(1.0, np.abs(phi).max())
        assert cost == pytest.approx(upper.value, rel=1e-6, abs=1e-9)

    def test_pd_upper_bound_is_tight(self, g3, rng):
        phi = random_pd(g3, rng)
        lower, upper = gf.fourier_norm_bounds(g3, phi)
        expect = float(np.max(phi[g3.unit_arrows].real))
        assert lower.value == pytest.approx(expect, abs=1e-6)
        assert upper.value == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("n", [4, 5])
    def test_lower_is_below_the_exact_norm_on_cyclic_groups(self, n):
        # on Z_n the norm is the l1 sum of the Fourier coefficients
        g = gf.group_groupoid(gf.cyclic_table(n))
        for seed in range(8):
            phi = np.exp(2j * np.pi * np.random.default_rng(seed).random(n))
            exact = float(np.abs(np.fft.fft(phi)).sum() / n)
            lower, upper = gf.fourier_norm_bounds(g, phi)
            assert lower.value <= exact <= upper.value
            assert lower.value == pytest.approx(exact, rel=1e-7)
            bound, residual, low = _dual_report(stieltjes_problem(g, phi), lower.witness["dual"])
            assert bound == pytest.approx(lower.value, rel=1e-12)
            assert residual <= 1e-12 and low >= -1e-12

    def test_weighted_groupoid_falls_back_to_point_masses(self, weighted_bundle, rng):
        phi = random_function(weighted_bundle, rng)
        lower, upper = gf.fourier_norm_bounds(weighted_bundle, phi)
        assert lower.value <= upper.value + 1e-6


class TestGroupCase:
    @pytest.mark.parametrize("order", [2, 3])
    def test_completion_equals_single_coefficient_norm(self, order, rng):
        # on a group, the best single coefficient of the regular module
        # attains the completion optimum; self-inverse elements included
        g = gf.group_groupoid(gf.cyclic_table(order))
        for i in range(2):
            phi = random_function(g, rng)
            fs = gf.fourier_stieltjes_norm(g, phi)
            brute = brute_force_factorization_norm(g, phi, budget=40, seed=i)
            assert abs(fs.value - brute) <= 1e-5
            _, upper = gf.fourier_norm_bounds(g, phi)
            assert abs(upper.value - fs.value) <= 1e-5


class TestBruteForceOracle:
    def test_pd_matches_stieltjes_norm(self, g2, rng):
        phi = random_pd(g2, rng, mixture=False)
        fs = gf.fourier_stieltjes_norm(g2, phi)
        brute = brute_force_factorization_norm(g2, phi, budget=40, seed=1)
        assert abs(fs.value - brute) <= 1e-3

    def test_point_mass_cost(self, g2):
        brute = brute_force_factorization_norm(g2, gf.delta(g2, 1), budget=20, seed=0)
        assert brute <= 1.0 + 1e-6

    def test_exhausted_budget_returns_infinity(self, g2, rng):
        phi = random_function(g2, rng)
        assert brute_force_factorization_norm(g2, phi, budget=0) == np.inf

    def test_rejects_large_groupoids(self, g3, rng):
        with pytest.raises(ValueError, match="at most 6"):
            brute_force_factorization_norm(g3, random_function(g3, rng))
