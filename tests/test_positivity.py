import numpy as np
import pytest

import gfourier as gf
from conftest import random_function, random_pd
from reference import coefficient_oracle, pd_double_sum_oracle


class TestIsPositiveDefinite:
    def test_constant_one_is_pd(self, g2):
        assert gf.is_positive_definite(g2, np.ones(4))

    def test_large_off_diagonal_fails_with_witness(self, g2):
        phi = np.array([1.0, 2.0, 2.0, 1.0])  # units 1, off-diagonal arrows 2
        verdict = gf.is_positive_definite(g2, phi)
        assert not verdict
        # witness quadratic form is negative
        val = gf.quadratic_form(g2, phi, verdict.unit, verdict.vector)
        assert val.real < -0.5 and abs(val.imag) < 1e-12

    def test_gram_matrix_example(self, g2):
        phi = np.array([1.0, 2.0, 2.0, 1.0])
        m = gf.gram_matrix(g2, phi, 0)
        assert np.allclose(m, [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("gname", ["g2", "g3", "bundle23", "weighted_bundle"])
    def test_three_criteria_agree(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        for i in range(24):
            if i % 3 == 0:
                phi = random_pd(g, rng)
            elif i % 3 == 1:
                phi = random_function(g, rng)
            else:
                phi = random_function(g, rng)
                phi = (phi + gf.star(g, phi)) / 2
            v1 = bool(gf.is_positive_definite(g, phi))
            v2 = bool(gf.pd_verdict_pointset(g, phi))
            v3 = bool(gf.pd_verdict_integral(g, phi))
            assert v1 == v2 == v3

    def test_integral_criterion_against_double_sum_oracle(self, bundle23, rng):
        g = bundle23
        phi = random_function(g, rng)
        for u in range(g.n_units):
            fiber = g.r_fibers[u]
            f = np.zeros(g.n_arrows, dtype=complex)
            probe = rng.standard_normal(len(fiber)) + 1j * rng.standard_normal(len(fiber))
            f[fiber] = probe
            got = gf.integral_form(g, phi, u, probe)
            assert abs(got - pd_double_sum_oracle(g, phi, u, f)) < 1e-12

    def test_pd_symmetries(self, g3, rng):
        for _ in range(10):
            phi = random_pd(g3, rng)
            assert np.abs(gf.star(g3, phi) - phi).max() < 1e-10
            for x in range(g3.n_arrows):
                bound = np.sqrt(
                    abs(phi[g3.unit_arrows[g3.range_of[x]]])
                    * abs(phi[g3.unit_arrows[g3.source_of[x]]])
                )
                assert abs(phi[x]) <= bound + 1e-9

    def test_closure_under_conjugation_and_involution(self, bundle23, rng):
        phi = random_pd(bundle23, rng)
        assert gf.is_positive_definite(bundle23, np.conj(phi))
        assert gf.is_positive_definite(bundle23, gf.star(bundle23, phi))


# each verdict with the form its witness vector makes negative or non-real
VERDICT_FORMS = (
    (gf.is_positive_definite, gf.quadratic_form),
    (gf.pd_verdict_pointset, gf.quadratic_form),
    (gf.pd_verdict_integral, gf.integral_form),
)

BOUNDARY_GROUPOIDS = {
    "g2": lambda request: request.getfixturevalue("g2"),
    "g3": lambda request: request.getfixturevalue("g3"),
    "g4": lambda request: request.getfixturevalue("g4"),
    "bundle23": lambda request: request.getfixturevalue("bundle23"),
    "weighted_bundle": lambda request: request.getfixturevalue("weighted_bundle"),
    "transf": lambda request: request.getfixturevalue("transf"),
    "g3xI2": lambda request: gf.product_with_pair_groupoid(request.getfixturevalue("g3")),
    "weighted_pair3": lambda request: gf.pair_groupoid(3, unit_weights=[1, 2, 0.5]),
}


def _gram_spectra(g, phi):
    """Per unit: smallest and largest eigenvalue of the Gram's Hermitian part, and
    the verdicts' entry scale max(1, max|entry|)."""
    out = []
    for u in range(g.n_units):
        m = gf.gram_matrix(g, phi, u)
        vals = np.linalg.eigvalsh((m + m.conj().T) / 2)
        out.append((vals[0], vals[-1], max(1.0, float(np.abs(m).max()))))
    return np.array(out).T


def _boundary_family(g, rng, count, tol=gf.positivity.PSD_TOL):
    """Hermitian phi whose smallest Gram eigenvalue is level * tol * scale, spectra up to 20.

    The bound is attained at one unit and holds at the others, where scale is
    the unit's max(1, max|Gram entry|).  Levels cycle through +10 and -0.5
    (inside the tolerance band) and -10 and -2 (outside).  Kinds cycle through
    full-rank coefficients, rank-one and sparse coefficients (repeated small
    eigenvalues) and Hermitian parts of random functions.  The unit indicator
    has identity Grams, so adding a multiple of it moves every Gram spectrum
    rigidly.
    """
    units = np.zeros(g.n_arrows, dtype=complex)
    units[g.unit_arrows] = 1.0
    family = []
    for i in range(count):
        level = (10.0, -10.0, -0.5, -2.0)[i % 4]
        kind = (i // 4) % 4
        if kind == 0:
            psi = random_pd(g, rng)
        elif kind == 1:
            f = np.zeros(g.n_arrows, dtype=complex)
            f[rng.integers(g.n_arrows)] = 1.0 + 1j * rng.standard_normal()
            psi = gf.regular_coefficient(g, f, f)
        elif kind == 2:
            f = random_function(g, rng)
            f[rng.random(g.n_arrows) < 0.5] = 0.0
            psi = gf.regular_coefficient(g, f, f)
        else:
            psi = random_function(g, rng)
            psi = (psi + gf.star(g, psi)) / 2
        low, top, _ = _gram_spectra(g, psi)
        phi = psi * rng.uniform(0.5, 20.0) / max(top.max() - low.min(), 1e-12)
        for _ in range(2):  # the second pass absorbs the shift's effect on the scale
            low, _, scale = _gram_spectra(g, phi)
            phi = phi + (level * tol * scale - low).max() * units
        family.append((level > -1, phi))
    return family


class TestVerdictsByInertia:
    def test_negative_direction_almost_orthogonal_to_ones(self, g3):
        """Gram spectrum (-1e-6, 0, 1e-6) whose negative eigenvector is almost
        orthogonal to ones + 0.01 arange: every criterion must reject it."""
        s = np.ones(3) + 0.01 * np.arange(3)
        s /= np.linalg.norm(s)
        a = np.array([1.0, -1.0, 0.0])
        a -= (a @ s) * s
        q, _ = np.linalg.qr(np.column_stack([a / np.linalg.norm(a) + 0.01 * s, s, [0.0, 0.0, 1.0]]))
        fiber = g3.r_fibers[0]
        phi = np.zeros(g3.n_arrows, dtype=complex)
        phi[g3.compose_table[np.ix_(g3.inverse_of[fiber], fiber)]] = q @ np.diag([-1e-6, 1e-6, 0.0]) @ q.T
        for u in range(g3.n_units):
            assert np.allclose(np.linalg.eigvalsh(gf.gram_matrix(g3, phi, u)), [-1e-6, 0.0, 1e-6])
        for verdict, _ in VERDICT_FORMS:
            assert not verdict(g3, phi, 1e-9)

    @pytest.mark.parametrize("gname", list(BOUNDARY_GROUPOIDS))
    def test_verdicts_agree_on_boundary_family(self, gname, request):
        g = BOUNDARY_GROUPOIDS[gname](request)
        rng = np.random.default_rng(sum(map(ord, gname)))
        for inside, phi in _boundary_family(g, rng, 48):
            assert [bool(verdict(g, phi)) for verdict, _ in VERDICT_FORMS] == [inside] * 3

    @pytest.mark.parametrize("gname", list(BOUNDARY_GROUPOIDS))
    def test_witnesses_are_strictly_negative(self, gname, request):
        g = BOUNDARY_GROUPOIDS[gname](request)
        rng = np.random.default_rng(sum(map(ord, gname)) + 1)
        inputs = [phi for inside, phi in _boundary_family(g, rng, 24) if not inside]
        for _ in range(12):
            phi = random_function(g, rng)
            inputs.append((phi + gf.star(g, phi)) / 2)
        failures = 0
        for phi in inputs:
            for verdict, form in VERDICT_FORMS:
                out = verdict(g, phi)
                if not out:
                    failures += 1
                    value = form(g, phi, out.unit, out.vector)
                    assert value.real < 0 and abs(value.imag) <= 1e-12 * max(1.0, abs(value))
                    assert abs(value - out.value) <= 1e-12 * max(1.0, abs(value))
        assert failures >= 3 * 12

    @pytest.mark.parametrize("gname", ["g3", "weighted_pair3"])
    def test_non_hermitian_input_has_non_real_witness(self, gname, request, rng):
        g = BOUNDARY_GROUPOIDS[gname](request)
        for i in range(12):
            # real inputs are non-Hermitian at every unit of a pair groupoid and have
            # real diagonals, so only a pair of points with phase i gives a non-real form
            phi = random_function(g, rng).real if i % 2 else random_function(g, rng)
            for verdict, form in VERDICT_FORMS:
                out = verdict(g, phi)
                assert not out
                assert abs(form(g, phi, out.unit, out.vector).imag) > 0


class TestGnsBundle:
    def test_constant_one_on_group_gives_line_fibers(self, z2):
        bundle, xi = gf.gns_bundle(z2, np.ones(2))
        assert bundle.dims == (1,)
        back = gf.coefficient(z2, bundle, xi, xi)
        assert np.abs(back - 1.0).max() < 1e-12

    def test_unit_indicator_gives_full_fibers(self, g2):
        phi = np.zeros(4, dtype=complex)
        phi[g2.unit_arrows] = 1.0
        bundle, xi = gf.gns_bundle(g2, phi)
        assert bundle.dims == (2, 2)
        for x in range(4):
            m = np.abs(bundle.maps[x])
            assert np.allclose(m @ m.T.conj(), np.eye(2), atol=1e-9)
        back = gf.coefficient(g2, bundle, xi, xi)
        assert np.abs(back - phi).max() < 1e-12

    def test_zero_function_gives_zero_bundle(self, g2):
        bundle, xi = gf.gns_bundle(g2, np.zeros(4))
        assert bundle.dims == (0, 0)
        assert np.abs(gf.coefficient(g2, bundle, xi, xi)).max() == 0.0

    def test_rejects_non_pd(self, g2):
        with pytest.raises(ValueError, match="not positive definite"):
            gf.gns_bundle(g2, np.array([1.0, 2.0, 2.0, 1.0]))

    @pytest.mark.parametrize("gname", ["g2", "g3", "bundle23", "weighted_bundle", "transf"])
    def test_reconstruction_and_bundle_axioms(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        for _ in range(6):
            phi = random_pd(g, rng)
            bundle, xi = gf.gns_bundle(g, phi)
            back = gf.coefficient(g, bundle, xi, xi)
            assert np.abs(back - phi).max() < 1e-10
            for x in range(g.n_arrows):
                u, v = int(g.range_of[x]), int(g.source_of[x])
                l_map = bundle.maps[x]
                assert l_map.shape == (bundle.dims[u], bundle.dims[v])
                gram = l_map.conj().T @ l_map
                assert np.abs(gram - np.eye(bundle.dims[v])).max() < 1e-9
                inv = bundle.maps[int(g.inverse_of[x])]
                assert np.abs(inv - l_map.conj().T).max() < 1e-9
            for e in g.unit_arrows:
                d = bundle.maps[int(e)].shape[0]
                assert np.abs(bundle.maps[int(e)] - np.eye(d)).max() < 1e-9
            for x in range(g.n_arrows):
                for y in range(g.n_arrows):
                    z = g.compose_table[x, y]
                    if z != -1:
                        err = np.abs(
                            bundle.maps[int(z)] - bundle.maps[x] @ bundle.maps[y]
                        ).max(initial=0.0)
                        assert err < 1e-9


class TestCoefficient:
    def test_trivial_bundle_constant_section(self, g3):
        bundle = gf.trivial_bundle(g3)
        ones = gf.positivity.constant_section(g3, bundle)
        assert np.allclose(gf.coefficient(g3, bundle, ones, ones), 1.0)

    def test_self_coefficient_is_pd(self, g3, rng):
        phi = random_pd(g3, rng)
        bundle, _ = gf.gns_bundle(g3, phi)
        vectors = tuple(
            rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in bundle.dims
        )
        xi = gf.BundleSection(vectors)
        assert gf.is_positive_definite(g3, gf.coefficient(g3, bundle, xi, xi))

    def test_sup_bound(self, g3, rng):
        phi = random_pd(g3, rng)
        bundle, _ = gf.gns_bundle(g3, phi)

        def rand_section():
            return gf.BundleSection(
                tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in bundle.dims)
            )

        for _ in range(10):
            xi, eta = rand_section(), rand_section()
            coeff = gf.coefficient(g3, bundle, xi, eta)
            bound = max(np.linalg.norm(v) for v in xi.vectors) * max(
                np.linalg.norm(v) for v in eta.vectors
            )
            assert np.abs(coeff).max() <= bound + 1e-9

    def test_dimension_mismatch_rejected(self, g3, rng):
        bundle = gf.trivial_bundle(g3, dim=2)
        bad = gf.BundleSection(tuple(np.zeros(1, dtype=complex) for _ in range(3)))
        good = gf.positivity.constant_section(g3, bundle)
        with pytest.raises(ValueError):
            gf.coefficient(g3, bundle, bad, good)


class TestRegularCoefficient:
    def test_every_point_mass_is_a_coefficient(self, weighted_bundle):
        g = weighted_bundle
        for x in range(g.n_arrows):
            u = int(g.source_of[x])
            f = np.zeros(g.n_arrows, dtype=complex)
            f[g.unit_arrows[u]] = 1.0 / g.weights[g.unit_arrows[u]]
            got = gf.regular_coefficient(g, f, gf.delta(g, x))
            assert np.abs(got - gf.delta(g, x)).max() < 1e-12

    def test_self_coefficient_is_pd(self, bundle23, rng):
        for _ in range(5):
            f = random_function(bundle23, rng)
            assert gf.is_positive_definite(bundle23, gf.regular_coefficient(bundle23, f, f))

    @pytest.mark.parametrize("gname", ["g3", "weighted_bundle"])
    def test_agrees_with_convolution_and_oracle(self, gname, request, rng):
        g = request.getfixturevalue(gname)
        f, h = random_function(g, rng), random_function(g, rng)
        got = gf.regular_coefficient(g, f, h)
        assert np.abs(got - gf.convolve(g, h, gf.star(g, f))).max() < 1e-12
        assert np.abs(got - coefficient_oracle(g, f, h)).max() < 1e-12


class TestPdToSection:
    def test_constant_one_two_points(self, g2):
        xi = gf.pd_to_section(g2, np.ones(4))
        back = gf.regular_coefficient(g2, xi, xi)
        assert np.abs(back - 1.0).max() < 1e-10

    def test_identity_element_roundtrip(self, g3):
        e = gf.convolution_identity(g3)
        xi = gf.pd_to_section(g3, e)
        assert np.abs(gf.regular_coefficient(g3, xi, xi) - e).max() < 1e-10

    def test_random_pd_on_z3_bundle(self, rng):
        g = gf.group_bundle([gf.cyclic_table(3), gf.cyclic_table(3)])
        for _ in range(10):
            phi = random_pd(g, rng)
            xi = gf.pd_to_section(g, phi)
            assert np.abs(gf.regular_coefficient(g, xi, xi) - phi).max() < 1e-10

    def test_rejects_weighted_haar(self, weighted_bundle, rng):
        phi = random_pd(weighted_bundle, rng)
        with pytest.raises(ValueError, match="weights"):
            gf.pd_to_section(weighted_bundle, phi)

    def test_rejects_non_pd(self, g2):
        with pytest.raises(ValueError, match="not positive definite"):
            gf.pd_to_section(g2, np.array([1.0, 2.0, 2.0, 1.0]))


class TestOffDiagonalEmbed:
    def test_pd_inputs_embed_to_pd(self, g3, rng):
        phi = random_pd(g3, rng)
        embedded = gf.off_diagonal_embed(g3, phi, phi, phi)
        prod = gf.product_with_pair_groupoid(g3)
        assert gf.is_positive_definite(prod, embedded)

    def test_zero_corners_force_zero(self, g2):
        phi = gf.delta(g2, 1)
        embedded = gf.off_diagonal_embed(g2, np.zeros(4), phi, np.zeros(4))
        prod = gf.product_with_pair_groupoid(g2)
        assert not gf.is_positive_definite(prod, embedded)
        embedded0 = gf.off_diagonal_embed(g2, np.zeros(4), np.zeros(4), np.zeros(4))
        assert gf.is_positive_definite(prod, embedded0)

    def test_block_readback(self, g3, rng):
        rho, phi, tau = (random_function(g3, rng) for _ in range(3))
        embedded = gf.off_diagonal_embed(g3, rho, phi, tau)
        for x in range(g3.n_arrows):
            assert embedded[gf.product_arrow_id(x, 0, 1)] == phi[x]
            assert embedded[gf.product_arrow_id(x, 0, 0)] == rho[x]
            assert embedded[gf.product_arrow_id(x, 1, 1)] == tau[x]
            assert embedded[gf.product_arrow_id(x, 1, 0)] == np.conj(phi[g3.inverse_of[x]])
