import dataclasses
import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import gfourier as gf
from conftest import (
    random_function,
    random_pd,
    range_weighted_pair3,
    refused_by_the_index,
    s3_on_three_points,
    z4_on_4_points_through_z2,
    z12_on_16_points,
)
from stall_corpus import OPEN, STALLS, open_input, stall_input
from reference import (
    DiagBoundSdp,
    _base_ids_oracle,
    brute_force_factorization_norm,
    doubled_split_oracle,
    fourier_norm_oracle,
    gram_matrix_oracle,
    interior_point_oracle,
    orbit_bases_oracle,
    s3_irreps,
    schur_problem_oracle,
    schur_untied_oracle,
    stieltjes_problem_oracle,
    stieltjes_solve_oracle,
    term_cost_oracle,
    terms_sum_oracle,
    tied_problem_oracle,
    untied_problem_oracle,
    untied_solve_oracle,
)


def _schur_problem(a) -> DiagBoundSdp:
    """The oracle's untied declaration of the one block a, the Schur
    multiplier problem of a."""
    return schur_untied_oracle(np.asarray(a, dtype=complex))


def _untied(g, phi) -> DiagBoundSdp:
    """The oracle's coefficient-norm declaration of phi on g: one untied
    Schur block per orbit base."""
    return untied_problem_oracle(g, phi)


class TestSolveDiagBoundSdp:
    """The seeded re-check of ``gfourier.sdp`` on the one block of pair(1),
    [[rho, 1], [1, tau]], whose optimum is 1."""

    @staticmethod
    def _recheck(rho, tau, lower, phi=1.0):
        ids = np.zeros((1, 1, 1), dtype=int)
        return gf.sdp.solve_diag_bound_sdp((ids,), np.array([phi], dtype=complex),
                                           np.array([[rho], [tau]], dtype=complex), lower)

    def test_two_by_two_completion(self):
        sol = self._recheck(1.0, 1.0, 1.0)
        assert sol.status == "seeded" and sol.iterations == 0 and sol.probes == 0
        assert sol.value == 1.0

    def test_a_completion_that_is_not_psd_raises_the_value(self):
        # rho = tau = 0.5 with the diagonal pinned to the bound 0.5: the block
        # [[0.5, 1], [1, 0.5]] has eigenvalue -0.5, so the value rises to 1
        sol = self._recheck(0.5, 0.5, 0.5)
        assert sol.status == "open" and sol.lower == 0.5
        assert sol.value == pytest.approx(1.0, rel=1e-15)

    def test_zero_data_answers_zero(self):
        sol = self._recheck(0.0, 0.0, 0.0, phi=0.0)
        assert sol.value == 0.0 and sol.status == "seeded"

    def test_cross_validated_against_factorization_search(self, g2, rng):
        for i in range(3):
            phi = random_function(g2, rng)
            cb = gf.schur_cb_norm(phi.reshape(2, 2))
            brute = brute_force_factorization_norm(g2, phi, budget=40, seed=i)
            assert abs(cb.value - brute) <= 1e-5


S3_PERMS = list(itertools.permutations(range(3)))


def _s3_table():
    index = {p: i for i, p in enumerate(S3_PERMS)}
    return [[index[tuple(a[b[i]] for i in range(3))] for b in S3_PERMS] for a in S3_PERMS]


def _s3_transformation():
    return gf.transformation_groupoid(_s3_table(), [list(p) for p in S3_PERMS])


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
    "s3_group": lambda: gf.group_groupoid(_s3_table()),
}
# every orbit is one unit: the closed form answers with no Newton step
GROUP_ORBITS = ["z4", "z5", "bundle23", "weighted_bundle", "s3_group"]


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
    """The solve's dual blocks are PSD, exactly dual feasible in the
    oracle's declarations, and bound the value from below to within the
    requested gap; the oracle's interior-point solve meets the same value."""

    def _check(self, bases, phi, problems, min_eig):
        # the oracle's interior-point solve of every declaration: its dual
        # certifies its value, and its completion is PSD
        values = []
        for problem in problems:
            want = interior_point_oracle(problem)
            assert want.status == "optimal"
            assert want.probes == 1 and 0 < want.iterations <= 100
            bound, residual, low = _dual_report(problem, want.dual)
            scale = problem.data_scale()
            assert low >= -1e-12 * float(np.abs(want.dual).max())
            assert residual <= 1e-12 * scale
            assert bound == pytest.approx(want.lower, rel=1e-12, abs=1e-12)
            assert bound <= want.value
            assert (want.value - bound) / want.value <= 1e-7
            assert problem.min_eigenvalue(want.variables) >= 0.0
            values.append(want.value)
        assert values == pytest.approx([values[0]] * len(values), rel=1e-7)
        # the package meets that value; its dual re-verifies in every
        # declaration, and its witness is PSD on every unit's block
        cert, sol = gf.norms._solve(bases, phi)
        assert cert.value == pytest.approx(values[0], rel=1e-7)
        assert sol.status == "seeded"
        scale = float(np.abs(phi).max())
        assert min_eig(cert) >= -1e-12 * scale
        if sol.dual is None:  # the sup norm is the bound
            assert sol.lower == scale
            return
        for problem in problems:
            bound, residual, low = _dual_report(problem, sol.dual)
            assert low >= -1e-12 * float(np.abs(sol.dual).max())
            assert residual <= 1e-12 * problem.data_scale()
            assert bound == pytest.approx(sol.lower, rel=1e-12, abs=1e-12)
            assert sol.lower <= bound <= sol.value
            assert (sol.value - bound) / sol.value <= 1e-7

    @pytest.mark.parametrize("name", sorted(DUAL_GROUPOIDS))
    def test_stieltjes_problems(self, name, rng):
        # the untied blocks of the oracle, one per base as the package
        # solves them, and its tied problem
        g = DUAL_GROUPOIDS[name]()
        for _ in range(2):
            phi = random_function(g, rng)
            self._check(gf.norms._bases(g), phi, (_untied(g, phi), tied_problem_oracle(g, phi)),
                        lambda cert: _min_eig_on_every_unit(g, phi, cert))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_schur_problems(self, n, rng):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self._check(gf.norms._matrix_bases(n), a.ravel(), (_schur_problem(a),), lambda cert: _min_eig_on_block(a, cert))

    def test_oracle_stops_at_a_lower_bound_it_reaches(self, rng):
        # rank one: the cb norm is |x|_inf |y|_inf, the sup norm
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = np.outer(x, y.conj())
        sup = float(np.abs(a).max())
        full = interior_point_oracle(_schur_problem(a))
        early = interior_point_oracle(_schur_problem(a), lower=sup)
        assert early.iterations < full.iterations
        assert sup <= early.value <= sup * (1 + 1e-7)
        assert early.lower >= sup

    @pytest.mark.parametrize("name", GROUP_ORBITS)
    def test_closed_form_on_group_orbits(self, name, rng):
        g = DUAL_GROUPOIDS[name]()
        for _ in range(2):
            phi = random_function(g, rng)
            cert, sol = gf.norms._solve(gf.norms._bases(g), phi)
            assert sol.status == "seeded" and sol.iterations == 0
            bound, residual, low = _dual_report(tied_problem_oracle(g, phi), sol.dual)
            scale = float(np.abs(phi).max())
            assert low >= -1e-12 * float(np.abs(sol.dual).max())
            assert residual <= 1e-12 * scale
            # the reported bound is rounded down from -<F0, Z> by a few ulps
            assert sol.lower <= bound == pytest.approx(sol.lower, rel=1e-12)
            assert bound == pytest.approx(sol.value, rel=1e-12)
            assert _min_eig_on_every_unit(g, phi, cert) >= -1e-12 * scale

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16])
    def test_is_the_coefficient_norm_on_the_pair_groupoid(self, n, rng):
        # one per-base solve behind both, on the matrix and on the pair
        # groupoid's one orbit base; a PSD matrix is a positive definite
        # function on the pair groupoid and takes the seeded exit (n = 1: the
        # closed form)
        g = gf.pair_groupoid(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sparse = np.where(rng.random((n, n)) < 0.3, x, 0.0)
        for a in (x, sparse, x @ x.conj().T):
            cb, fs = gf.schur_cb_norm(a), gf.fourier_stieltjes_norm(g, a.ravel())
            assert cb.value == fs.value
            for key in ("lower", "iterations", "status", "blocks"):
                assert cb.witness[key] == fs.witness[key], key
            assert np.array_equal(cb.witness["p_block"], fs.witness["rho"].reshape(n, n))
            assert np.array_equal(cb.witness["q_block"], fs.witness["tau"].reshape(n, n))
        assert cb.witness["status"] == "seeded"
        assert cb.value == pytest.approx(a.diagonal().real.max(), rel=1e-12)

    @pytest.mark.parametrize("n, peak", [(64, 10e6), (128, 20e6)])
    def test_builds_no_groupoid(self, n, peak, monkeypatch, rng):
        # the Schur problem of one block needs no groupoid: the pair groupoid
        # of 64 points alone holds a 134 MB composition table
        calls = []

        def spy(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        spy(gf.FiniteGroupoid, "__init__")
        for owner in (gf, gf.groupoid, gf.norms):
            if hasattr(owner, "pair_groupoid"):
                spy(owner, "pair_groupoid")
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            value = gf.schur_cb_norm(a).value
            after, traced = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == []
        assert traced - before <= peak
        assert after - before < 1e6
        assert value >= np.abs(a).max()

    def test_witness_factorization_reconstructs(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cert = gf.schur_cb_norm(a)
        left, right = cert.witness["left"], cert.witness["right"]
        back = left @ right.conj().T
        assert np.abs(back - a).max() < 1e-8
        row_bound = np.sqrt(cert.value) + 1e-6
        assert np.linalg.norm(left, axis=1).max() <= row_bound
        assert np.linalg.norm(right, axis=1).max() <= row_bound

    @pytest.mark.parametrize("s", [1.0, 1e-310, 1e305])
    def test_witness_rows_are_within_the_value_at_every_scale(self, s, rng):
        # right = Q^1/2 and left = a (Q^1/2)^+ at a lifted scale: each takes
        # back half of an even power of two, so neither carries a factor of 2
        for n in (2, 3, 5):
            for _ in range(3):
                a = s * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                cert = gf.schur_cb_norm(a)
                left, right = cert.witness["left"], cert.witness["right"]
                assert np.abs(left @ right.conj().T - a).max() <= 1e-12 * np.abs(a).max()
                for x in (left, right):
                    rows = (np.abs(x / np.sqrt(cert.value)) ** 2).sum(axis=1)
                    assert rows.max() <= 1 + 1e-12


SCALES = [1e-306, 1e-12, 1e-8, 1e-4, 1e4]
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

    @pytest.mark.parametrize("s", [1e-306, 1e-310])
    @pytest.mark.parametrize("case", ["pair3", "z2_on_3", "schur3"])
    def test_solve_at_the_bottom_of_the_float_range(self, s, case, rng):
        # subnormal data is lifted by a power of two, so the solve takes the
        # same steps to the scaled value
        if case == "z2_on_3":
            g = gf.transformation_groupoid(gf.cyclic_table(2), [[0, 1, 2], [1, 0, 2]])
        else:
            g = gf.pair_groupoid(3)

        def norm(x):
            if case == "schur3":
                return gf.schur_cb_norm(x.reshape(3, 3))
            return gf.fourier_stieltjes_norm(g, x)

        phi = random_function(g, rng)
        base, scaled = norm(phi), norm(s * phi)
        assert scaled.value / s == pytest.approx(base.value, rel=1e-9)
        assert scaled.witness["iterations"] == base.witness["iterations"]

    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("gname", SCALE_GROUPOIDS)
    def test_fourier_norm_bounds(self, s, gname, request, rng):
        # conjugation-symmetric inputs too: the square root of the completion
        # blocks clamps their eigenvalues against an absolute floor, which
        # accepts every block at small scales, so its terms are only kept
        # where they reproduce phi
        g = request.getfixturevalue(gname)
        base = random_function(g, rng)
        for phi in (s * base, s * (base + gf.star(g, base)) / 2):
            lower, upper = gf.fourier_norm_bounds(g, phi)
            sup = float(np.abs(phi).max())
            assert sup <= lower.value <= upper.value
            total = sum(gf.regular_coefficient(g, f, h) for f, h in upper.witness["terms"])
            assert np.abs(total - phi).max() <= 1e-8 * sup

    @pytest.mark.parametrize("s", [1e-310, 1e-312, 1e-315, 1e-316, 1e-318, 1e-320])
    @pytest.mark.parametrize("orders", [(2, 3), (4, 5, 6)], ids=["bundle23", "bundle456"])
    def test_bundle_bracket_below_the_normal_range(self, s, orders):
        # phi is solved lifted into the normal range by a power of two, so the
        # closed form answers with no Newton step, and the bounds are scaled
        # back and moved out by the rounding margin, which a subnormal value's
        # unit in the last place sets: the bracket is the lifted phi's, scaled
        # back, widened by that margin and half an ulp on either side.  The
        # FFT oracle runs on the lifted phi too
        g = gf.group_bundle([gf.cyclic_table(k) for k in orders])
        margin = 2 * (gf.norms._ROUNDING * max(orders) + 1)
        lift = 1100
        for seed in range(20):
            base = random_function(g, np.random.default_rng(seed))
            for phi in (s * base, s * (base + gf.star(g, base)) / 2):
                lower, upper = gf.fourier_norm_bounds(g, phi)
                lifted = np.ldexp(phi.real, lift) + 1j * np.ldexp(phi.imag, lift)
                low, up = (b.value for b in gf.fourier_norm_bounds(g, lifted))
                assert lower.value <= upper.value
                widened = np.ldexp(up - low, -lift) + margin * np.spacing(upper.value)
                assert upper.value - lower.value <= widened
                assert len(upper.witness["terms"]) == 1
                assert lower.witness["stieltjes"].witness["iterations"] == 0
                assert gf.fourier_stieltjes_norm(g, phi).witness["iterations"] == 0
                exact = np.ldexp(_cyclic_bundle_norm(g, lifted), -lift)
                # the oracle rounds to the subnormal grid once, by half an ulp
                assert lower.value <= np.nextafter(exact, np.inf)
                assert np.nextafter(exact, 0.0) <= upper.value

    def test_lift_brings_only_extreme_inputs_into_range(self):
        lift = gf.norms._lift
        for top in (np.finfo(float).tiny, 1.0, 1e300, 2.0 ** 1000):
            assert lift(np.array([top])) == 0
        for top, want in ((1e-310, 1029), (1e302, -1004), (np.finfo(float).max, -1024)):
            assert lift(np.array([top])) == want
            assert 0.5 <= np.ldexp(top, want) < 1.0

    @pytest.mark.parametrize("gname", ["g3", "bundle23"])
    def test_largest_floats_are_solved_lowered(self, gname, request, rng):
        # above 2**1000 phi is solved lowered by a power of two, so the sums
        # inside the SVDs and eigenvalue solvers stay finite, and the norms
        # are scaled back; each section of a term takes half the scale
        g = request.getfixturevalue(gname)
        phi = random_function(g, rng)
        phi /= np.abs(phi).max()
        s, half = 1e308, 2.0 ** 512
        base = (gf.fourier_stieltjes_norm(g, phi), *gf.fourier_norm_bounds(g, phi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = (gf.fourier_stieltjes_norm(g, s * phi), *gf.fourier_norm_bounds(g, s * phi))
            cb = gf.schur_cb_norm(s * phi.reshape(3, 3)) if gname == "g3" else None
        for got, want in zip(big, base):
            assert got.value / s == pytest.approx(want.value, rel=1e-12)
        total = terms_sum_oracle(g, np.array(big[2].witness["terms"]) / half) * half * half
        assert np.abs(total - s * phi).max() <= 1e-8 * s
        if cb is not None:
            assert cb.value / s == pytest.approx(base[0].value, rel=1e-12)
            left, right = (cb.witness[key] / half for key in ("left", "right"))
            assert np.abs((left @ right.conj().T) * half * half - s * phi.reshape(3, 3)).max() <= 1e-8 * s

    def test_a_norm_above_the_largest_float_raises(self, rng):
        g = s3_on_three_points()
        phi = random_function(g, rng)
        phi /= np.abs(phi).max()
        top = 1.5e308
        assert gf.fourier_stieltjes_norm(g, phi).value > np.finfo(float).max / top
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for norm in (gf.fourier_stieltjes_norm, gf.fourier_norm_bounds):
                with pytest.raises(ValueError, match="the norm overflows"):
                    norm(g, top * phi)


FIXTURE_GROUPOIDS = ["g2", "g3", "g4", "z2", "z3", "bundle23", "weighted_bundle", "transf"]


def _random_assignment(real, rng):
    v = rng.standard_normal(real.size) + 1j * rng.standard_normal(real.size)
    v[real] = v[real].real
    return v


def _assert_same_blocks(new, old, key_id, real, rng, units=None):
    """The array declaration and the entry-by-entry one declare the same
    problem: the same objective, and the same blocks up to their order for
    random assignments by id (real where the variable is), of the
    entry-by-entry blocks of ``units`` when it is given."""
    assert sorted(map(key_id, old._objective)) == sorted(new.objective.tolist())
    for _ in range(3):
        v = _random_assignment(real, rng)
        stack = new.blocks_for(v)
        unmatched = [stack[b, :k, :k] for b, k in enumerate(new.sizes)]
        want = old.blocks_for({key: v[key_id(key)] for key in old._var_occ})
        want = want if units is None else [want[u] for u in units]
        assert len(unmatched) == len(want)
        for block in want:
            hits = [i for i, m in enumerate(unmatched)
                    if m.shape == block.shape and np.array_equal(m, block)]
            assert hits, "a block of the entry-by-entry declaration has no match"
            unmatched.pop(hits[0])


def _stieltjes_key_id(g):
    return lambda key: key[1] + (g.n_arrows if key[0] == "t" else 0)


def _schur_key_id(problem, m, b=0):
    """The id that the untied declaration holds where the Schur oracle puts
    its key ("p" or "q", i, j), in block b of m x m parts."""
    return lambda key: int(problem.var[b, key[1] + m * (key[0] == "q"), key[2] + m * (key[0] == "q")])


def _stieltjes_real_ids(g):
    arrow = np.arange(2 * g.n_arrows) % g.n_arrows
    return g.inverse_of[arrow] == arrow


def _assert_bases_are_schur_problems(g, phi, rng):
    """Block b of the untied declaration is the Schur problem of the Gram
    block of the b-th orbit base, for random assignments by id (real on the
    diagonal), and is zero in its padding."""
    problem = _untied(g, phi)
    grams = [gram_matrix_oracle(g, phi, u) for u in orbit_bases_oracle(g)]
    assert problem.sizes.tolist() == [2 * len(a) for a in grams]
    olds = [schur_problem_oracle(a) for a in grams]
    key_ids = [_schur_key_id(problem, len(a), b) for b, a in enumerate(grams)]
    # untied: every key of every block has its own variable
    held = [key_id(key) for old, key_id in zip(olds, key_ids) for key in old._var_occ]
    assert len(set(held)) == len(held) and min(held) >= 0
    objective = [key_id(key) for old, key_id in zip(olds, key_ids) for key in old._objective]
    assert sorted(objective) == sorted(problem.objective.tolist())
    for _ in range(3):
        v = _random_assignment(np.isin(np.arange(problem.n_vars), problem.objective), rng)
        stack = problem.blocks_for(v)
        for b, (old, key_id) in enumerate(zip(olds, key_ids)):
            k = old.block_sizes[0]
            want = old.blocks_for({key: v[key_id(key)] for key in old._var_occ})[0]
            assert np.array_equal(stack[b, :k, :k], want)
            assert not stack[b, k:].any() and not stack[b, :, k:].any()


class TestArrayDeclaration:
    @pytest.mark.parametrize("gname", FIXTURE_GROUPOIDS)
    def test_tied_oracle_matches_entry_builder(self, gname, request, rng):
        """The tied declaration of the oracle: one block per orbit, equal to
        the entry-by-entry block of the orbit's first unit; the block of every
        unit w is that block under the simultaneous permutation x -> gamma x,
        for an arrow gamma from the first unit u to w."""
        g = request.getfixturevalue(gname)
        phi = random_function(g, rng)
        new, old = tied_problem_oracle(g, phi), stieltjes_problem_oracle(g, phi)
        key_id = _stieltjes_key_id(g)
        assert sorted(map(key_id, old._objective)) == sorted(new.objective.tolist())
        # the orbit of w is the set of sources of the arrows into w
        first_of = [int(g.source_of[g.range_of == w].min()) for w in range(g.n_units)]
        firsts = orbit_bases_oracle(g)
        assert sorted(firsts) == sorted(set(first_of)) and new.sizes.size == len(firsts)
        _assert_same_blocks(new, old, key_id, _stieltjes_real_ids(g), rng, firsts)
        for _ in range(3):
            v = _random_assignment(_stieltjes_real_ids(g), rng)
            stack = new.blocks_for(v)
            want = old.blocks_for({key: v[key_id(key)] for key in old._var_occ})
            kept = [stack[b, :k, :k] for b, k in enumerate(new.sizes)]
            for b, u in enumerate(firsts):
                assert np.array_equal(kept[b], want[u])
            for w, u in enumerate(first_of):
                gamma = np.flatnonzero((g.source_of == u) & (g.range_of == w))[0]
                moved = g.compose_table[gamma, np.flatnonzero(g.range_of == u)]
                at = np.searchsorted(np.flatnonzero(g.range_of == w), moved)
                perm = np.concatenate([at, at + at.size])
                assert np.array_equal(want[w][np.ix_(perm, perm)], kept[firsts.index(u)])

    @pytest.mark.parametrize("gname", FIXTURE_GROUPOIDS + ["s3", "z12_on_16", "pair3w", "range_weighted"])
    def test_each_base_is_the_schur_problem(self, gname, request, rng):
        g = {
            "s3": s3_on_three_points,
            "z12_on_16": z12_on_16_points,
            "pair3w": lambda: gf.pair_groupoid(3).with_unit_weights([0.5, 2.0, 1.5]),
            "range_weighted": range_weighted_pair3,
        }.get(gname, lambda: request.getfixturevalue(gname))()
        phi = random_function(g, rng)
        if gname == "range_weighted":
            # weights that are not left invariant: the orbit index refuses them
            with refused_by_the_index(g):
                gf.norms._bases(g)
            return
        _assert_bases_are_schur_problems(g, phi, rng)
        # the package's Gram stacks are the oracle's orbit bases, in order
        ids = [base.tolist() for x in gf.norms._bases(g).grams for base in x]
        assert ids == [x.tolist() for x in _base_ids_oracle(g)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_schur_problem_matches_entry_builder(self, n, rng):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        problem = _schur_problem(a)
        real = np.isin(np.arange(problem.n_vars), problem.objective)
        _assert_same_blocks(problem, schur_problem_oracle(a), _schur_key_id(problem, n), real, rng)


SPLIT_GROUPOIDS = {
    "s3-on-3": s3_on_three_points,
    "z12-on-16": z12_on_16_points,
    "pair2xz3": lambda: gf.product_with_pair_groupoid(gf.group_groupoid(gf.cyclic_table(3))),
    "z4-on-4-through-z2": z4_on_4_points_through_z2,
}


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

    @pytest.mark.parametrize("fallback", [True, False], ids=["active-set", "scaled"])
    @pytest.mark.parametrize("gname", ["g3", "transf", "s3", "z12_on_16", "g3xI2"])
    def test_witness_is_psd_on_every_unit_block(self, gname, fallback, request, rng, monkeypatch):
        # the problem keeps one block per orbit; the witness must hold on all
        # units, from the stall-closing step (a stall window of one
        # evaluation) and from the diagonal scaling
        if fallback:
            monkeypatch.setattr(gf.norms, "_STALL", 1)
        g = {
            "s3": _s3_transformation,
            "z12_on_16": z12_on_16_points,
            "g3xI2": lambda: gf.product_with_pair_groupoid(request.getfixturevalue("g3")),
        }.get(gname, lambda: request.getfixturevalue(gname))()
        phi = random_function(g, rng)
        cert = gf.fourier_stieltjes_norm(g, phi)
        assert cert.witness["status"] == ("active-set" if fallback else "scaled")
        values = np.concatenate([cert.witness["rho"], cert.witness["tau"]])
        oracle = stieltjes_problem_oracle(g, phi)
        key_id = _stieltjes_key_id(g)
        blocks = oracle.blocks_for({key: values[key_id(key)] for key in oracle._var_occ})
        assert len(blocks) == g.n_units
        scale = float(np.abs(phi).max())
        assert min(float(np.linalg.eigvalsh(b)[0]) for b in blocks) >= -1e-9 * scale

    def test_completion_term_reconstructs_on_self_inverse_arrows(self, rng):
        # the completion term must survive fibers containing self-inverse
        # arrows: the isotropy group of S3 on three points is Z2, a transposition
        g = s3_on_three_points()
        phi = random_function(g, rng)
        cert = gf.fourier_stieltjes_norm(g, phi)
        terms = gf.norms._completion_term(g, phi, cert)
        assert len(terms) == 1
        total = sum(gf.regular_coefficient(g, f, h) for f, h in terms)
        assert np.abs(total - phi).max() <= 1e-8 * np.abs(phi).max()
        cost = sum(gf.section_norm(g, f) * gf.section_norm(g, h) for f, h in terms)
        assert cost <= cert.value * (1 + 1e-9)

    @pytest.mark.parametrize("name", sorted(SPLIT_GROUPOIDS))
    def test_completion_term_costs_at_most_the_doubled_groupoid_split(self, name):
        # one term from the Schur complement of the completion, against the
        # two terms of its square root on the product with pair(2)
        g = SPLIT_GROUPOIDS[name]()
        for seed in range(3):
            phi = random_function(g, np.random.default_rng(seed))
            cert = gf.fourier_stieltjes_norm(g, phi)
            terms = gf.norms._completion_term(g, phi, cert)
            want = doubled_split_oracle(g, cert, phi)
            assert len(terms) == 1
            cost = term_cost_oracle(g, terms)
            assert cost <= cert.value * (1 + 1e-9)
            assert cost <= term_cost_oracle(g, want)
            assert np.abs(terms_sum_oracle(g, terms) - phi).max() <= 1e-8 * np.abs(phi).max()

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


WEIGHTED_ORBITS = {
    "s3-on-3w": lambda: s3_on_three_points([0.5, 2.0, 1.5]),
    "z12-on-16w": lambda: z12_on_16_points(np.linspace(0.5, 2.0, 16)),
    "pair3w": lambda: gf.pair_groupoid(3).with_unit_weights([0.5, 2.0, 1.5]),
}


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
            bound, residual, low = _dual_report(tied_problem_oracle(g, phi), lower.witness["dual"])
            assert bound == pytest.approx(lower.value, rel=1e-12)
            assert residual <= 1e-12 and low >= -1e-12

    @pytest.mark.parametrize("name", sorted(WEIGHTED_ORBITS))
    def test_weighted_orbits_of_several_units(self, name):
        # the terms are read from the orbit bases and divided by sqrt(w), so
        # unit weights that differ across an orbit keep the unweighted brackets
        g = WEIGHTED_ORBITS[name]()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            lower, upper = gf.fourier_norm_bounds(g, random_pd(g, rng))
            assert len(upper.witness["terms"]) == 1
            assert lower.value <= upper.value <= lower.value * (1 + 1e-6)
            phi = random_function(g, rng)
            lower, upper = gf.fourier_norm_bounds(g, phi)
            total = terms_sum_oracle(g, np.array(upper.witness["terms"]))
            assert np.abs(total - phi).max() <= 1e-8 * np.abs(phi).max()
            assert lower.value <= upper.value
            assert len(upper.witness["terms"]) == 1
            assert (upper.value - lower.value) / upper.value <= 1e-6

    def test_weights_that_are_not_left_invariant_are_refused(self):
        # the sup-norm and Schur lower bounds presume left-invariant weights: a
        # point mass phi(x) delta_x would cost |phi(x)| sqrt(w(e_s) / w(x)), below
        # its sup norm where w(x) > w(e_s).  Arrow 1 = (0, 1) has weight 1 but source weight 2
        g = range_weighted_pair3()
        for kind, seed, phi in _range_weighted_inputs():
            with pytest.raises(ValueError, match=r"Haar weight of arrow 1 is 1\.0, but left invariance "
                                                 r"needs the source-unit weight 2\.0"):
                gf.fourier_norm_bounds(g, phi)


def _range_weighted_inputs():
    """Real, 30%-dense real and real rank-2 arrow functions on pair(3), 30 seeds each."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        yield "real", seed, rng.standard_normal(9)
        yield "sparse", seed, np.where(rng.random(9) < 0.3, rng.standard_normal(9), 0.0)
        yield "rank2", seed, (rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))).ravel()


BRACKET_GROUPOIDS = {
    "pair2xz3": lambda: gf.product_with_pair_groupoid(gf.group_groupoid(gf.cyclic_table(3))),
    "pair3xI2": lambda: gf.product_with_pair_groupoid(gf.pair_groupoid(3)),
    "z4-on-4-through-z2": z4_on_4_points_through_z2,
    "z12-on-16": z12_on_16_points,
    "s3-on-3": s3_on_three_points,
    "z2-on-3-fixed": lambda: gf.transformation_groupoid(gf.cyclic_table(2), [[0, 1, 2], [1, 0, 2]]),
    **{k: v for k, v in WEIGHTED_ORBITS.items() if k != "pair3w"},
}


def _bracket_inputs(g, rng):
    """Generic, conjugation-symmetric, positive definite, unimodular and
    30%-dense arrow functions on g."""
    phi = random_function(g, rng)
    sparse = np.where(rng.random(g.n_arrows) < 0.3, phi, 0.0)
    return {"generic": phi, "symmetric": (phi + gf.star(g, phi)) / 2, "pd": random_pd(g, rng),
            "unimodular": np.exp(2j * np.pi * rng.random(g.n_arrows)), "sparse": sparse}


class TestBracketCloses:
    """The completion term alone meets the certified lower bound on every
    groupoid, orbits with isotropy and unequal unit weights included."""

    @pytest.mark.parametrize("name", FIXTURE_GROUPOIDS + sorted(BRACKET_GROUPOIDS))
    def test_one_term_within_1e_6_of_the_lower_bound(self, name, request):
        g = BRACKET_GROUPOIDS[name]() if name in BRACKET_GROUPOIDS else request.getfixturevalue(name)
        for seed in range(5):
            for kind, phi in _bracket_inputs(g, np.random.default_rng(seed)).items():
                lower, upper = gf.fourier_norm_bounds(g, phi)
                assert len(upper.witness["terms"]) == 1, (seed, kind)
                assert lower.value <= upper.value, (seed, kind)
                assert upper.value - lower.value <= 1e-6 * upper.value, (seed, kind)


def _near_one(terms):
    """Each term as a one-term list with its two sections brought near 1 by
    powers of two, and the product of those powers, so that subnormal and
    huge sections keep their digits when they are multiplied."""
    for f, h in terms:
        a, b = (int(np.frexp(np.abs(x).max())[1]) for x in (f, h))
        yield [(f * 2.0 ** -a, h * 2.0 ** -b)], 2.0 ** (a + b)


class TestStackedTerms:
    """The stacked term cost against the per-term loop, and the residual
    term that completes a completion term whose coefficient misses phi."""

    @pytest.mark.parametrize("gname", FIXTURE_GROUPOIDS + ["pair16"])
    def test_cost_matches_the_loop(self, gname, request, rng):
        g = gf.pair_groupoid(16) if gname == "pair16" else request.getfixturevalue(gname)
        shape = (3, 2, g.n_arrows)
        terms = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert gf.norms._term_cost(g, terms) == pytest.approx(term_cost_oracle(g, terms), rel=1e-12)

    @pytest.mark.parametrize("s", [1.0, 1e-310, 1e305])
    @pytest.mark.parametrize("gname", FIXTURE_GROUPOIDS + ["pair3w"])
    def test_a_residual_joins_as_the_identity_term(self, gname, s, request, rng, monkeypatch):
        # a completion term whose h is 1e-6 too large misses phi by about
        # 1e-6 phi; the residual r then joins as (e, r), e the convolution
        # identity, whose coefficient is r (below and above the normal range
        # both sections carry their power of two of the lift)
        g = WEIGHTED_ORBITS["pair3w"]() if gname == "pair3w" else request.getfixturevalue(gname)
        completion_term = gf.norms._completion_term
        monkeypatch.setattr(gf.norms, "_completion_term",
                            lambda *args: completion_term(*args) * np.array([[1.0], [1 + 1e-6]]))
        phi = s * random_function(g, rng)
        lower, upper = gf.fourier_norm_bounds(g, phi)
        terms = upper.witness["terms"]
        assert len(terms) == 2
        e = gf.convolution_identity(g)
        scale = terms[1][0][g.unit_arrows[0]] / e[g.unit_arrows[0]]
        assert scale.imag == 0 and np.frexp(scale.real)[0] == 0.5  # a power of two
        assert np.array_equal(terms[1][0], e * scale)
        first, second = (terms_sum_oracle(g, term) * (power / s) for term, power in _near_one(terms))
        unscaled = phi.real / s + 1j * (phi.imag / s)  # a complex quotient by 1e-310 overflows
        sup = float(np.abs(unscaled).max())
        assert np.abs(first + second - unscaled).max() <= 1e-12 * sup  # second is r = phi - first
        assert np.abs(second + 1e-6 * unscaled).max() <= 1e-10 * sup
        fiber = max(c.arrows.shape[1] for c in g.fiber_classes)
        cost = term_cost_oracle(g, terms)
        margin = 2 * (gf.norms._ROUNDING * fiber + 1) * max(np.finfo(float).eps * cost, np.spacing(cost))
        assert cost <= upper.value <= cost + margin
        assert lower.value <= upper.value

    def test_an_open_bracket_builds_one_term_in_little_memory(self, monkeypatch):
        # with no scaling step a generic phi on pair(32) keeps its bracket
        # open; the completion term alone reproduces phi, so the upper side
        # is that one term, with nothing of nnz x 2 x n_arrows entries (32 MB
        # here) built
        monkeypatch.setattr(gf.norms, "_MAX_ITER", 0)
        g = gf.pair_groupoid(32)
        phi = random_function(g, np.random.default_rng(32))
        gf.fourier_norm_bounds(g, phi)  # builds the cached indexes
        tracemalloc.start()
        try:
            lower, upper = gf.fourier_norm_bounds(g, phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lower.witness["stieltjes"].witness["status"] == "open"
        assert len(upper.witness["terms"]) == 1
        assert peak <= 4e6


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


LARGE_GROUP_ORBITS = {
    "z48": lambda: gf.group_groupoid(gf.cyclic_table(48)),
    "z30-40-50": lambda: gf.group_bundle([gf.cyclic_table(k) for k in (30, 40, 50)]),
}


def _cyclic_bundle_norm(g, phi) -> float:
    """The largest FFT l1 norm over |G_u| among the fibers of a bundle of
    cyclic groups (one cyclic group included), each fiber's arrows in order."""
    return max(float(np.abs(np.fft.fft(phi[g.range_of == u])).sum()) / np.sum(g.range_of == u)
               for u in range(g.n_units))


def _min_eig_on_block(a, cert) -> float:
    """The smallest eigenvalue of the completion [[rho, a], [a^H, tau]] of
    the Schur problem of the n x n matrix a, rho and tau read by the pair
    groupoid's arrow ids i n + j."""
    n = len(a)
    w = cert.witness
    return float(np.linalg.eigvalsh(np.block([[w["rho"].reshape(n, n), a], [a.conj().T, w["tau"].reshape(n, n)]]))[0])


def _min_eig_on_every_unit(g, phi, cert) -> float:
    """The completion's smallest eigenvalue over the blocks of all units, from
    the entry-by-entry builder."""
    values = np.concatenate([cert.witness["rho"], cert.witness["tau"]])
    oracle = stieltjes_problem_oracle(g, phi)
    key_id = _stieltjes_key_id(g)
    blocks = oracle.blocks_for({key: values[key_id(key)] for key in oracle._var_occ})
    assert len(blocks) == g.n_units
    return min(float(np.linalg.eigvalsh(b)[0]) for b in blocks)


class TestGroupOrbits:
    """The closed form on orbits of one unit against independent oracles."""

    def _check_certificates(self, g, phi, lower, upper):
        cert = lower.witness["stieltjes"]
        assert cert.witness["status"] == "seeded" and cert.witness["iterations"] == 0
        scale = float(np.abs(phi).max())
        assert _min_eig_on_every_unit(g, phi, cert) >= -1e-12 * scale
        assert max(cert.witness["rho"][g.unit_arrows].real.max(),
                   cert.witness["tau"][g.unit_arrows].real.max()) <= cert.value
        bound, residual, low = _dual_report(tied_problem_oracle(g, phi), lower.witness["dual"])
        assert low >= -1e-12 and residual <= 1e-12 * scale
        assert lower.value <= bound == pytest.approx(cert.value, rel=1e-12)
        terms = np.array(upper.witness["terms"])
        assert len(terms) == 1
        assert np.abs(terms_sum_oracle(g, terms) - phi).max() <= 1e-10 * scale
        assert term_cost_oracle(g, terms) == pytest.approx(upper.value, rel=1e-12)
        assert (upper.value - lower.value) / upper.value <= 1e-6

    def test_s3_group_against_explicit_irreps(self, rng):
        g = gf.group_groupoid(_s3_table())
        for _ in range(3):
            phi = random_function(g, rng)
            exact = fourier_norm_oracle(s3_irreps(S3_PERMS), phi)
            assert gf.fourier_stieltjes_norm(g, phi).value == pytest.approx(exact, rel=1e-12)
            lower, upper = gf.fourier_norm_bounds(g, phi)
            assert lower.value <= exact <= upper.value
            self._check_certificates(g, phi, lower, upper)

    @pytest.mark.parametrize("name", sorted(LARGE_GROUP_ORBITS))
    def test_large_cyclic_groups_against_the_fft(self, name):
        g = LARGE_GROUP_ORBITS[name]()
        phi = np.exp(2j * np.pi * np.random.default_rng(g.n_arrows).random(g.n_arrows))
        exact = _cyclic_bundle_norm(g, phi)
        cert = gf.fourier_stieltjes_norm(g, phi)
        assert cert.witness["iterations"] == 0
        assert cert.value == pytest.approx(exact, rel=1e-9)
        lower, upper = gf.fourier_norm_bounds(g, phi)
        assert lower.value <= exact <= upper.value
        self._check_certificates(g, phi, lower, upper)

    @pytest.mark.parametrize("name", ["z4", "z5", "bundle23", "weighted_bundle", "z30-40-50"])
    def test_bracket_closes_on_cyclic_bundles(self, name):
        g = {**DUAL_GROUPOIDS, **LARGE_GROUP_ORBITS}[name]()
        for seed in range(5):
            phi = random_function(g, np.random.default_rng(seed))
            exact = _cyclic_bundle_norm(g, phi)
            lower, upper = gf.fourier_norm_bounds(g, phi)
            assert lower.value <= exact <= upper.value
            self._check_certificates(g, phi, lower, upper)

    def test_mixed_orbits_match_the_solve_without_closed_form(self):
        # Z2 swaps points 0 and 1 and fixes 2: the closed form bounds the
        # fixed point's block, and the scaling does the rest
        g = gf.transformation_groupoid(gf.cyclic_table(2), [[0, 1, 2], [1, 0, 2]])
        for seed in range(20):
            phi = random_function(g, np.random.default_rng(seed))
            cert = gf.fourier_stieltjes_norm(g, phi)
            want = stieltjes_solve_oracle(g, phi)
            assert cert.value == pytest.approx(want.value, rel=1e-7)
            assert cert.witness["iterations"] <= want.iterations
            assert _min_eig_on_every_unit(g, phi, cert) >= -1e-9 * float(np.abs(phi).max())

    def test_scaled_dual_fails_the_psd_check(self, rng):
        g = gf.group_groupoid(gf.cyclic_table(5))
        phi = random_function(g, rng)
        lower, _ = gf.fourier_norm_bounds(g, phi)
        z = lower.witness["dual"].copy()
        problem = tied_problem_oracle(g, phi)
        assert _dual_report(problem, z)[2] >= -1e-12
        z[:, :5, 5:] *= 1.01
        z[:, 5:, :5] *= 1.01
        assert _dual_report(problem, z)[2] < -1e-4


GROUP_FIXTURES = ["z2", "z3", "bundle23", "weighted_bundle"]


def _same_problem(a: DiagBoundSdp, b: DiagBoundSdp) -> bool:
    """Whether two declarations are one problem with its variables numbered
    alike (the order of the objective ids aside)."""
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("data", "var", "conj", "sizes")) \
        and np.array_equal(np.sort(a.objective), np.sort(b.objective))
MORE_GROUPOIDS = {
    "z12-on-16": z12_on_16_points,
    "pair2xz3": lambda: gf.product_with_pair_groupoid(gf.group_groupoid(gf.cyclic_table(3))),
}


class TestPolarSeed:
    """The balanced polar completion, the scaling's uniform evaluation, is
    optimal on rank-one matrices and is taken with no Newton step; where it
    is not, and no scaling step is allowed, the solve is the one seeded with
    the candidates it replaced, and with scaling steps it is the diagonal
    scaling's, with no Newton step either."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rank_one_takes_the_seeded_exit(self, n, rng):
        x, y = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        a = np.outer(x, y.conj())
        exact = float(np.abs(x).max() * np.abs(y).max())
        g = gf.pair_groupoid(n)
        for cert in (gf.fourier_stieltjes_norm(g, a.ravel()), gf.schur_cb_norm(a)):
            assert cert.witness["status"] == "seeded" and cert.witness["iterations"] == 0
            assert cert.value == pytest.approx(exact, rel=1e-12)
        lower, upper = gf.fourier_norm_bounds(g, a.ravel())
        assert lower.value == pytest.approx(exact, rel=1e-12)
        assert lower.value <= upper.value <= lower.value * (1 + 1e-12)

    @pytest.mark.parametrize("name", FIXTURE_GROUPOIDS + sorted(MORE_GROUPOIDS))
    def test_other_inputs_solve_as_before(self, name, request, monkeypatch):
        # with no scaling step allowed the uniform evaluation answers alone
        monkeypatch.setattr(gf.norms, "_MAX_ITER", 0)
        g = request.getfixturevalue(name) if name in FIXTURE_GROUPOIDS else MORE_GROUPOIDS[name]()
        generic = 0
        for seed in range(3):
            phi = random_function(g, np.random.default_rng(seed))
            for f in (phi, (phi + gf.star(g, phi)) / 2):
                cert = gf.fourier_stieltjes_norm(g, f)
                w = cert.witness
                want = stieltjes_solve_oracle(g, f, closed_form=True)
                if w["status"] == "seeded":  # where the seed verifies it can only do better
                    assert w["iterations"] == 0 and cert.value <= want.value * (1 + 1e-7)
                    continue
                generic += 1
                # the polar completion alone: a certified bracket that the
                # oracle's optimum lies in, left open
                assert w["status"] == "open" and w["iterations"] == 0
                assert w["lower"] <= want.value * (1 + 1e-7) and want.value <= cert.value * (1 + 1e-7)
                assert _min_eig_on_every_unit(g, f, cert) >= -1e-9 * float(np.abs(f).max())
                # the oracle's Newton steps on its untied problem, from the
                # same bound and seeds; on the pair groupoids, whose arrow ids
                # are the base's positions, the tied problem is the untied one
                untied = untied_solve_oracle(g, f, closed_form=True)
                same = _same_problem(tied_problem_oracle(g, f), untied_problem_oracle(g, f))
                assert same == (name in ("g2", "g3", "g4"))
                got = untied.value, untied.lower, untied.iterations, untied.status
                if same:
                    assert got == (want.value, want.lower, want.iterations, want.status)
                    continue
                # elsewhere the tied problem has fewer variables, or numbers
                # them in another order, so its sums run in another order
                assert (untied.iterations, untied.status) == (want.iterations, want.status)
                assert untied.value == pytest.approx(want.value, rel=1e-12)
                assert untied.lower == pytest.approx(want.lower, rel=1e-10)
        # every orbit of a group bundle is one unit, where the seed is the closed form
        assert (generic == 0) == (name in GROUP_FIXTURES)

    @pytest.mark.parametrize("name", FIXTURE_GROUPOIDS + sorted(MORE_GROUPOIDS))
    def test_other_inputs_take_the_scaled_exit(self, name, request):
        g = request.getfixturevalue(name) if name in FIXTURE_GROUPOIDS else MORE_GROUPOIDS[name]()
        scaled = 0
        for seed in range(3):
            phi = random_function(g, np.random.default_rng(seed))
            for f in (phi, (phi + gf.star(g, phi)) / 2):
                cert = gf.fourier_stieltjes_norm(g, f)
                w = cert.witness
                want = stieltjes_solve_oracle(g, f, closed_form=True)
                assert w["iterations"] == 0 and w["status"] in ("seeded", "scaled")
                assert (w["status"] == "scaled") == (w["scaling_steps"] > 0)
                scaled += w["status"] == "scaled"
                assert cert.value == pytest.approx(want.value, rel=1e-7)
                assert w["lower"] == pytest.approx(want.lower, rel=1e-7)
                assert w["lower"] <= cert.value <= w["lower"] * (1 + 1e-7)
        assert (scaled == 0) == (name in GROUP_FIXTURES)


SCALED_GROUPOIDS = {
    **{f"pair{n}": (lambda n=n: gf.pair_groupoid(n)) for n in range(5, 9)},
    "z12-on-16": z12_on_16_points,
    "z12-on-16w": lambda: z12_on_16_points(np.linspace(0.5, 2.0, 16)),
    "pair2xz3": lambda: gf.product_with_pair_groupoid(gf.group_groupoid(gf.cyclic_table(3))),
    "z4-on-4-through-z2": z4_on_4_points_through_z2,
    "s3-on-3": s3_on_three_points,
    "s3-on-3w": lambda: s3_on_three_points([0.5, 2.0, 1.5]),
    "range-weighted-pair3": range_weighted_pair3,
}


def _scaled_inputs(g, seed):
    """Dense, 70%-sparse and unimodular arrow functions on g."""
    rng = np.random.default_rng(seed)
    phi = random_function(g, rng)
    return {"dense": phi, "sparse": np.where(rng.random(g.n_arrows) < 0.3, phi, 0.0),
            "unimodular": np.exp(2j * np.pi * rng.random(g.n_arrows))}


class TestScaledCompletion:
    """The diagonal scaling, with its stall-closing step, against the
    oracle's interior-point solve of the tied problem: the same value and
    lower bound to 1e-7, a completion PSD on the block of every unit, and a
    dual certificate that re-verifies from the declaration alone and fails
    when its off-diagonal part is scaled."""

    @pytest.mark.parametrize("name", FIXTURE_GROUPOIDS + ["s3_moved"] + sorted(SCALED_GROUPOIDS))
    def test_matches_the_interior_point_solve(self, name, request):
        g = SCALED_GROUPOIDS[name]() if name in SCALED_GROUPOIDS else request.getfixturevalue(name)
        fallbacks = []
        for seed in range(5):
            for kind, phi in _scaled_inputs(g, seed).items():
                if name == "range-weighted-pair3":
                    # weights that are not left invariant: the orbit index refuses them
                    with refused_by_the_index(g):
                        gf.fourier_stieltjes_norm(g, phi)
                    continue
                cert, solution = gf.norms._solve(gf.norms._bases(g), phi)
                w, want = cert.witness, stieltjes_solve_oracle(g, phi)
                assert cert.value == pytest.approx(want.value, rel=1e-7), (seed, kind)
                assert w["lower"] == pytest.approx(want.lower, rel=1e-7), (seed, kind)
                assert w["lower"] <= cert.value <= w["lower"] * (1 + 1e-7), (seed, kind)
                scale = float(np.abs(phi).max())
                assert _min_eig_on_every_unit(g, phi, cert) >= -1e-9 * scale, (seed, kind)
                if w["status"] not in ("seeded", "scaled", "active-set"):
                    fallbacks.append((seed, kind))
                    continue
                assert (w["iterations"] == 0) == (w["status"] != "active-set")
                if solution.dual is None:  # the sup norm is the bound, or phi is 0
                    assert w["lower"] == scale
                    continue
                problem = tied_problem_oracle(g, phi)
                z = solution.dual
                bound, residual, low = _dual_report(problem, z)
                assert residual <= 1e-12 and low >= -1e-12 * float(np.abs(z).max()), (seed, kind)
                # the lower bound is the larger of the sup norm and -<F0, Z> rounded down
                assert w["lower"] <= max(bound, scale), (seed, kind)
                assert bound == pytest.approx(w["lower"], rel=1e-12), (seed, kind)
                block = int(np.abs(z).sum(axis=(1, 2)).argmax())
                m = problem.sizes[block] // 2
                z = z.copy()
                z[block, :m, m:2 * m] *= 1.01
                z[block, m:2 * m, :m] *= 1.01
                assert _dual_report(problem, z)[2] < -1e-6 * float(np.abs(z).max()), (seed, kind)
        # every input of this set closes
        assert not fallbacks, fallbacks

    @pytest.mark.parametrize("limit", ["_STALL", "_MAX_ITER"])
    def test_stalls_close_on_the_active_set(self, limit, monkeypatch):
        # a real input whose optimum puts a weight on the boundary, where the
        # upper side of the scaling closes too slowly (its gap is still 4e-7
        # after 600 evaluations): with a stall window of 3 the gap soon fails
        # to halve in time, and with a cap of 5 the evaluations run out; the
        # stall-closing step finishes from the scaling's best lower point
        monkeypatch.setattr(gf.norms, limit, 3 if limit == "_STALL" else 5)
        g = gf.pair_groupoid(4)
        phi = np.random.default_rng(90).standard_normal(16)
        cert = gf.fourier_stieltjes_norm(g, phi)
        w = cert.witness
        assert w["status"] == "active-set" and w["iterations"] > 0
        if limit == "_MAX_ITER":
            assert w["scaling_steps"] == 5
        else:
            assert 3 <= w["scaling_steps"] < gf.norms._MAX_ITER
        want = stieltjes_solve_oracle(g, phi)
        assert cert.value == pytest.approx(want.value, rel=1e-7)
        assert w["lower"] == pytest.approx(want.lower, rel=1e-7)
        assert _min_eig_on_every_unit(g, phi, cert) >= -1e-9 * float(np.abs(phi).max())

    def test_a_live_weight_is_never_evaluated_at_zero(self, monkeypatch):
        # a 40%-dense real input whose scaling drives live weights below the
        # normal range: each is evaluated at the smallest normal float, never
        # at 0, where its row or column of Phi, which is not zero, would read
        # as a zero row (42 of its 64 evaluations did)
        evaluate, at_zero = gf.norms._evaluate, []

        def spy(gram, x=None):
            if x is not None:
                live = np.stack([np.any(gram, axis=2), np.any(gram, axis=1)], axis=1)
                at_zero.append(bool(np.any((x == 0) & live)))
            return evaluate(gram, x)

        monkeypatch.setattr(gf.norms, "_evaluate", spy)
        rng = np.random.default_rng([4, 117])
        a = rng.standard_normal((4, 4))
        a = a * (rng.random((4, 4)) < 0.4)
        cert = gf.schur_cb_norm(a)
        assert at_zero and not any(at_zero)
        want = stieltjes_solve_oracle(gf.pair_groupoid(4), a.ravel())
        assert cert.value == pytest.approx(want.value, rel=1e-7)
        # the optimum lies on the boundary, where a weight tends to 0 and the
        # upper side of the scaling closes too slowly: the stall-closing step
        # may finish the solve here
        assert cert.witness["status"] in ("scaled", "active-set")

    def test_zero_rows_and_columns_keep_zero_weight(self):
        # a zero row of the Gram block keeps its weight at 0, its completion
        # entries at 0 and its diagonal at t, with no 0/0 on the way
        g = gf.pair_groupoid(4)
        for seed in range(5):
            a = random_function(g, np.random.default_rng(seed)).reshape(4, 4)
            a[1], a[:, 2] = 0.0, 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cert = gf.fourier_stieltjes_norm(g, a.ravel())
            w = cert.witness
            assert w["status"] == "scaled" and w["iterations"] == 0
            assert cert.value == pytest.approx(stieltjes_solve_oracle(g, a.ravel()).value, rel=1e-7)
            rho, tau = w["rho"].reshape(4, 4), w["tau"].reshape(4, 4)
            assert not np.any(np.delete(rho[1], 1)) and not np.any(np.delete(tau[2], 2))
            assert rho[1, 1] == tau[2, 2] == cert.value
            assert _min_eig_on_every_unit(g, a.ravel(), cert) >= -1e-9 * float(np.abs(a).max())


def _corpus_id(entry):
    return "-".join(map(str, entry))


class TestStallCorpus:
    """Every input on which the scaling stalls closes: the bracket to 1e-7,
    a dual that re-verifies from the oracle's declaration, a completion PSD
    on the block, and where the oracle's interior-point solve is affordable
    (n <= 12, and n = 24 at seeds 8 and 18, two of its three fallbacks),
    its value to 1e-7."""

    @pytest.mark.parametrize("entry", STALLS, ids=_corpus_id)
    def test_closes(self, entry):
        a = stall_input(*entry)
        n = len(a)
        cert, sol = gf.norms._solve(gf.norms._matrix_bases(n), a.ravel().astype(complex))
        w = cert.witness
        assert w["status"] in ("seeded", "scaled", "active-set")
        assert w["lower"] <= cert.value <= w["lower"] * (1 + 1e-7)
        scale = float(np.abs(a).max())
        if sol.dual is None:
            assert w["lower"] == scale
        else:
            bound, residual, low = _dual_report(_schur_problem(a), sol.dual)
            assert residual <= 1e-12 * scale and low >= -1e-12 * float(np.abs(sol.dual).max())
            assert bound == pytest.approx(w["lower"], rel=1e-12)
        assert _min_eig_on_block(a, cert) >= -1e-9 * scale
        if n <= 12 or entry in ((24, 8, "rank2"), (24, 18, "rank2")):
            # a is real, so the oracle solves the real problem, of the same optimum
            want = interior_point_oracle(schur_untied_oracle(a, real=True), lower=scale)
            assert cert.value == pytest.approx(want.value, rel=1e-7)

    def test_rank_two_on_pair_24_closes(self):
        # seeds 8 and 18 fell back to the interior-point method; seed 18's
        # cheapest completion reaches the gap after 71 evaluations but is
        # read through weights below 1e-40 and fails the PSD check, so both
        # close on the active set
        g = gf.pair_groupoid(24)
        for seed in (8, 18):
            cert = gf.fourier_stieltjes_norm(g, stall_input(24, seed, "rank2").ravel())
            assert cert.witness["status"] == "active-set" and cert.witness["iterations"] > 0
            assert cert.value <= cert.witness["lower"] * (1 + 1e-7)

    def test_pair_48_within_its_cpu_budget(self):
        # the interior-point fallback took 79 s here; the target is 0.5 s
        a = stall_input(48, 1, "rank2")
        start = time.process_time()
        cert = gf.schur_cb_norm(a)
        assert time.process_time() - start <= 5.0
        assert cert.witness["status"] == "active-set"
        assert cert.value <= cert.witness["lower"] * (1 + 1e-7)

    @pytest.mark.parametrize("entry", OPEN, ids=_corpus_id)
    def test_open_inputs_keep_a_certified_bracket(self, entry):
        # the faces that the stall-closing step tries here repeat before the
        # bracket closes; it ends "open", within 1e-4, with a dual that
        # re-verifies and a completion PSD on the block
        a = open_input(*entry)
        cert, sol = gf.norms._solve(gf.norms._matrix_bases(len(a)), a.ravel().astype(complex))
        w = cert.witness
        assert w["status"] == "open"
        assert w["lower"] * (1 + 1e-7) < cert.value <= w["lower"] * (1 + 1e-4)
        scale = float(np.abs(a).max())
        bound, residual, low = _dual_report(_schur_problem(a), sol.dual)
        assert residual <= 1e-12 * scale and low >= -1e-12 * float(np.abs(sol.dual).max())
        assert bound == pytest.approx(w["lower"], rel=1e-12)
        assert _min_eig_on_block(a, cert) >= -1e-9 * scale


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


def _results(g, phi):
    """Every number and array of the three norms of phi on g, for an exact comparison."""
    def flat(x):
        if isinstance(x, gf.NormCertificate):
            return (x.value, x.kind, flat(x.witness))
        if isinstance(x, dict):
            return {k: flat(v) for k, v in x.items()}
        if isinstance(x, (tuple, list)):
            return tuple(map(flat, x))
        return (x.dtype.str, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x
    return flat((gf.fourier_stieltjes_norm(g, phi), gf.fourier_norm_bounds(g, phi)))


class TestUntiedDeclaration:
    """The coefficient-norm problem is read afresh on every solve from the
    groupoid's indexes, and the oracle's declaration holds one untied Schur
    block per orbit base."""

    def test_interleaved_solves_match_a_fresh_groupoid(self, bundle23, weighted_bundle, rng):
        for _ in range(4):
            for g in (bundle23, weighted_bundle):
                phi = random_function(g, rng)
                fresh = dataclasses.replace(g)
                _assert_bases_are_schur_problems(g, phi, rng)
                assert _results(g, phi) == _results(fresh, phi)

    def test_new_weights_build_a_new_layout(self, bundle23, rng):
        # the weights enter the closed-form term, so a reweighted copy of a
        # groupoid solved before must give what a fresh build gives
        phi = random_function(bundle23, rng)
        gf.fourier_norm_bounds(bundle23, phi)
        want = gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)], unit_weights=[2.0, 0.5])
        for g in (bundle23.with_unit_weights([2.0, 0.5]),
                  dataclasses.replace(bundle23, weights=want.weights)):
            assert _results(g, phi) == _results(want, phi)
            assert _results(g, phi) != _results(bundle23, phi)

    @pytest.mark.parametrize("gname", [*FIXTURE_GROUPOIDS, "s3", "z12_on_16", "pair2xz3", "pair1",
                                       "weighted_pair3"])
    def test_objective_holds_every_diagonal_position(self, gname, request, rng):
        """The premise of the oracle's feasible start, of its dual lift by
        the identity and of the re-check's pinned diagonal: every diagonal
        entry of every declared block is rho or tau at a unit arrow,
        Gram[p, p] = inverse(x_p) x_p."""
        g = {
            "s3": s3_on_three_points,
            "z12_on_16": z12_on_16_points,
            "pair2xz3": lambda: gf.product_with_pair_groupoid(gf.group_groupoid(gf.cyclic_table(3))),
            "pair1": lambda: gf.pair_groupoid(1),
            "weighted_pair3": lambda: gf.pair_groupoid(3).with_unit_weights([1.0, 4.0, 0.5]),
        }.get(gname, lambda: request.getfixturevalue(gname))()
        problem = _untied(g, random_function(g, rng))
        assert problem.sizes.size and problem.objective.size
        for b, k in enumerate(problem.sizes):
            assert np.isin(problem.var[b, range(k), range(k)], problem.objective).all()


class TestNoRepeatedWork:
    """The norm bounds read their decompositions from the factors the solve
    already computed, and the norms alone build no decomposition."""

    @staticmethod
    def _spy(monkeypatch, calls, owners, names):
        for owner in owners:
            for name in names:
                if hasattr(owner, name):
                    fn = getattr(owner, name)

                    def wrapper(*args, _fn=fn, _name=name, **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)
                    monkeypatch.setattr(owner, name, wrapper)

    @pytest.mark.parametrize("gname", ["g3", "bundle23", "s3-on-3", "z12-on-16", "pair5"])
    def test_bounds_on_positive_definite_input_repeat_no_work(self, gname, request, monkeypatch, rng):
        g = {"s3-on-3": s3_on_three_points, "z12-on-16": z12_on_16_points,
             "pair5": lambda: gf.pair_groupoid(5)}.get(gname, lambda: request.getfixturevalue(gname))()
        phi = random_pd(g, rng)
        gf.fourier_norm_bounds(g, phi)  # builds the cached indexes
        calls = []
        self._spy(monkeypatch, calls, (gf.positivity, gf.norms, gf),
                  ("pd_to_section", "is_positive_definite", "_verdict"))
        self._spy(monkeypatch, calls, (gf.FiniteGroupoid,), ("__init__",))
        lower, upper = gf.fourier_norm_bounds(g, phi)
        assert calls == []
        assert len(upper.witness["terms"]) == 1
        assert upper.value <= lower.value * (1 + 1e-9)

    def test_norms_build_no_term(self, monkeypatch, g3, bundle23, rng):
        calls = []
        self._spy(monkeypatch, calls, (gf.norms,), ("_completion_term",))
        self._spy(monkeypatch, calls, (gf.groupoid.FiberClass,), ("spread",))
        for g in (g3, bundle23, s3_on_three_points()):
            gf.fourier_stieltjes_norm(g, random_function(g, rng))
        gf.schur_cb_norm(rng.standard_normal((4, 4)))
        assert calls == []
        gf.fourier_norm_bounds(g3, random_function(g3, rng))
        assert "spread" in calls
