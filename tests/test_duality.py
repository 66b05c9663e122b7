import numpy as np
import pytest

import gfourier as gf
from conftest import no_bisection_structure, random_function


class TestEvaluationMaps:
    def test_identity_bisection_restricts_to_units(self, g3, rng):
        alpha = gf.range_evaluation_map(g3, gf.identity_bisection(g3))
        phi = random_function(g3, rng)
        assert np.allclose(alpha(phi), phi[g3.unit_arrows])

    def test_flip_evaluates_off_diagonal(self, g2, rng):
        flip = gf.Bisection((1, 2))
        alpha = gf.range_evaluation_map(g2, flip)
        phi = random_function(g2, rng)
        assert alpha(phi)[0] == phi[1]
        assert alpha(phi)[1] == phi[2]
        beta = gf.source_evaluation_map(g2, flip)
        # arrow 1 = (0,1) has source 1; beta evaluates it at unit 1
        assert beta(phi)[1] == phi[1]
        assert beta(phi)[0] == phi[2]

    def test_module_laws_on_basis(self, g3, rng):
        for a in gf.enumerate_bisections(g3):
            alpha = gf.range_evaluation_map(g3, a)
            beta = gf.source_evaluation_map(g3, a)
            for u in range(3):
                b = np.zeros(3, dtype=complex)
                b[u] = 1.0 + 0.5j
                for x in range(9):
                    phi = gf.delta(g3, x)
                    assert np.allclose(
                        alpha(gf.module_action(g3, b, phi, "right")), alpha(phi) * b
                    )
                    assert np.allclose(
                        beta(gf.module_action(g3, b, phi, "left")), b * beta(phi)
                    )


class TestVerifyModuleMapPair:
    def test_all_bisection_pairs_pass(self, g3):
        for a in gf.enumerate_bisections(g3):
            report = gf.verify_module_map_pair(
                g3, gf.range_evaluation_map(g3, a), gf.source_evaluation_map(g3, a)
            )
            assert report.ok
            assert report.unit_bijection == tuple(gf.source_permutation(g3, a))
            assert report.compactness == "satisfied-by-finiteness"

    def test_module_law_violation_detected(self, g2):
        a = gf.identity_bisection(g2)
        bad = gf.ModuleMap(matrix=np.ones((2, 4)), side="right")
        report = gf.verify_module_map_pair(g2, bad, gf.source_evaluation_map(g2, a))
        assert not report.module_law_ok
        assert any("module law" in f for f in report.failures)

    def test_mismatched_pair_has_no_unit_bijection(self, g2):
        a, b = gf.enumerate_bisections(g2)
        report = gf.verify_module_map_pair(
            g2, gf.range_evaluation_map(g2, a), gf.source_evaluation_map(g2, b)
        )
        assert report.unit_bijection is None
        assert not report.ok

    def test_nonvanishing_failure_detected(self, g2):
        matrix = np.zeros((2, 4), dtype=complex)
        matrix[0, 0] = 1.0  # unit 1 sees nothing
        alpha = gf.ModuleMap(matrix=matrix, side="right")
        beta = gf.ModuleMap(matrix=matrix.copy(), side="left")
        report = gf.verify_module_map_pair(g2, alpha, beta)
        assert not report.nonvanishing_ok

    def test_non_multiplicative_detected(self, g2):
        a = gf.identity_bisection(g2)
        alpha = gf.range_evaluation_map(g2, a)
        doubled = gf.ModuleMap(matrix=2.0 * alpha.matrix, side="right")
        report = gf.verify_module_map_pair(
            g2, doubled, gf.ModuleMap(matrix=2.0 * gf.source_evaluation_map(g2, a).matrix,
                                      side="left")
        )
        assert not report.multiplicative_ok

    def test_requires_correct_sides(self, g2):
        a = gf.identity_bisection(g2)
        with pytest.raises(ValueError):
            gf.verify_module_map_pair(
                g2, gf.source_evaluation_map(g2, a), gf.range_evaluation_map(g2, a)
            )


class TestSupportAnalysis:
    def test_bisection_map_support(self, g3):
        for a in gf.enumerate_bisections(g3):
            analysis = gf.support_analysis(g3, gf.range_evaluation_map(g3, a))
            assert analysis.active == set(a.picks)
            assert analysis.dead == set(range(9)) - set(a.picks)
            assert analysis.active_units == set(range(3))
            assert analysis.dead_units == frozenset()
            assert analysis.singleton_ok

    def test_zero_map(self, g3):
        analysis = gf.support_analysis(
            g3, gf.ModuleMap(matrix=np.zeros((3, 9)), side="right")
        )
        assert analysis.active == frozenset()
        assert analysis.dead_units == set(range(3))

    def test_multiplicative_module_maps_are_point_evaluations(self, g3, rng):
        # the classification: a row of a multiplicative right module map is a
        # point evaluation inside the unit's range fiber, or zero
        for picks in [(0, 4, 8), (1, 3, 8), (2, 4, 6)]:
            matrix = np.zeros((3, 9), dtype=complex)
            for u, x in enumerate(picks):
                matrix[u, x] = 1.0
            alpha = gf.ModuleMap(matrix=matrix, side="right")
            report = gf.verify_module_map_pair(
                g3, alpha, gf.ModuleMap(matrix=matrix.copy(), side="left")
            )
            assert report.multiplicative_ok
            assert gf.support_analysis(g3, alpha).singleton_ok
        # non-evaluation rows break multiplicativity
        for matrix in (
            np.eye(3, 9, dtype=complex) * 0.5,          # scaled evaluation
            np.array([[1, 1, 0, 0, 0, 0, 0, 0, 0],      # two points in one row
                      [0, 0, 0, 0, 1, 0, 0, 0, 0],
                      [0, 0, 0, 0, 0, 0, 0, 0, 1]], dtype=complex),
        ):
            alpha = gf.ModuleMap(matrix=matrix, side="right")
            ok, _ = gf.duality._multiplicativity(g3, alpha, 1e-9)
            assert not ok

    def test_section_evaluation_on_group_bundle(self, bundle23):
        # evaluating along a range section that is not a bisection:
        # still multiplicative, singleton support per unit
        g = bundle23
        picks = (1, 2)  # non-identity element in each fiber
        matrix = np.zeros((2, g.n_arrows), dtype=complex)
        for u, x in enumerate(picks):
            matrix[u, x] = 1.0
        alpha = gf.ModuleMap(matrix=matrix, side="right")
        analysis = gf.support_analysis(g, alpha)
        assert analysis.active == set(picks)
        assert analysis.singleton_ok


class TestReconstructBisection:
    @pytest.mark.parametrize("n", [2, 3])
    def test_roundtrip_all_bisections(self, n):
        g = gf.pair_groupoid(n)
        for a in gf.enumerate_bisections(g):
            back = gf.reconstruct_bisection(
                g, gf.range_evaluation_map(g, a), gf.source_evaluation_map(g, a)
            )
            assert back == a

    def test_identity_evaluations(self, g3):
        e = gf.identity_bisection(g3)
        back = gf.reconstruct_bisection(
            g3, gf.range_evaluation_map(g3, e), gf.source_evaluation_map(g3, e)
        )
        assert back == e

    def test_corrupted_source_map_reports_witness_unit(self, g3):
        a = gf.enumerate_bisections(g3)[2]
        alpha = gf.range_evaluation_map(g3, a)
        beta = gf.source_evaluation_map(g3, a)
        corrupted = beta.matrix.copy()
        corrupted[1] = 0.0
        corrupted[1, int(g3.unit_arrows[1])] = 1.0
        with pytest.raises(gf.ReconstructionError):
            gf.reconstruct_bisection(
                g3, alpha, gf.ModuleMap(matrix=corrupted, side="left")
            )


class TestDualityReport:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 24), (5, 120)])
    def test_pair_groupoids_roundtrip(self, n, count):
        rep = gf.duality_report(gf.pair_groupoid(n))
        assert rep.bisection_count == count
        assert all(rep.roundtrip_ok) and rep.injective and rep.product_spot_ok
        assert all(rep.arrows_on_bisections)
        assert rep.ok

    def test_group_bundle(self, bundle23):
        rep = gf.duality_report(bundle23)
        assert rep.bisection_count == 6
        assert rep.ok

    def test_transformation_groupoid(self, transf):
        rep = gf.duality_report(transf)
        assert rep.ok and rep.bisection_count == 6

    def test_structure_without_bisections(self):
        rep = gf.duality_report(no_bisection_structure())
        assert rep.bisection_count == 0
        assert not any(rep.arrows_on_bisections)


class TestTranslationCovariance:
    def test_untranslated_evaluation_is_unit_restriction(self, g3, rng):
        for a in gf.enumerate_bisections(g3):
            f = random_function(g3, rng)
            assert gf.duality.translation_covariance_defect(g3, a, f) < 1e-12
