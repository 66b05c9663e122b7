"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and match the package's documented guarantees;
runtime budgets are asserted where stated.
"""

import dataclasses
import time

import numpy as np

import gfourier as gf
from conftest import random_function, random_pd


def _conclude(number: int, label: str, ok: bool):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


def test_criterion_1_pair_groupoid_operator_space_dimensions():
    start = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        g = gf.pair_groupoid(n)
        full = []
        for i in range(g.n_arrows):
            for j in range(g.n_arrows):
                m = np.zeros((g.n_arrows, g.n_arrows), dtype=complex)
                m[i, j] = 1.0
                full.append(m)
        adjointable = [m for m in full if gf.is_adjointable(g, m)]
        vn = gf.vn_basis(g)
        red = gf.reduced_algebra_basis(g)
        dims = (gf.span_dim(full), gf.span_dim(adjointable), len(vn), len(red))
        ok &= dims == (n ** 4, n ** 3, n ** 2, n ** 2)
        inter = gf.intersect_spans(vn, red)
        ok &= len(inter) == 1
        ok &= gf.regular.in_span(inter, np.eye(g.n_arrows, dtype=complex))
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    _conclude(1, f"operator space dimensions ({elapsed:.2f}s)", ok)


def test_criterion_2_positive_definiteness_triple_agreement():
    rng = np.random.default_rng(20)
    groupoids = [
        gf.pair_groupoid(2),
        gf.pair_groupoid(3),
        gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(2)]),
        gf.group_bundle([gf.cyclic_table(3), gf.cyclic_table(3)]),
    ]
    tol = 1e-9
    total = 0
    ok = True
    for g in groupoids:
        for i in range(52):
            kind = i % 3
            if kind == 0:
                phi = random_pd(g, rng)
            elif kind == 1:
                phi = random_function(g, rng)
            else:
                phi = random_function(g, rng)
                phi = (phi + gf.star(g, phi)) / 2
            v1 = bool(gf.is_positive_definite(g, phi, tol))
            v2 = bool(gf.pd_verdict_pointset(g, phi, tol))
            v3 = bool(gf.pd_verdict_integral(g, phi, tol))
            ok &= v1 == v2 == v3
            total += 1
    ok &= total >= 200
    _conclude(2, f"positive-definiteness criteria agree on {total} functions", ok)


def test_criterion_3_gns_and_square_root_reconstruction():
    rng = np.random.default_rng(30)
    groupoids = [
        gf.pair_groupoid(2),
        gf.pair_groupoid(3),
        gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)]),
        gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)], unit_weights=[2.0, 0.5]),
    ]
    count = 0
    worst = 0.0
    for g in groupoids:
        counting = bool(np.abs(g.weights - 1.0).max() <= 1e-12)
        for _ in range(26):
            phi = random_pd(g, rng)
            bundle, xi = gf.gns_bundle(g, phi)
            back = gf.coefficient(g, bundle, xi, xi)
            worst = max(worst, float(np.abs(back - phi).max()))
            if counting:
                section = gf.pd_to_section(g, phi)
                back2 = gf.regular_coefficient(g, section, section)
                worst = max(worst, float(np.abs(back2 - phi).max()))
            count += 1
    ok = count >= 100 and worst <= 1e-10
    _conclude(3, f"{count} reconstructions, worst error {worst:.2e}", ok)


def test_criterion_4_operator_identities():
    rng = np.random.default_rng(40)
    tol = 1e-10
    groupoids = [
        gf.pair_groupoid(3),
        gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)], unit_weights=[2.0, 0.5]),
        gf.transformation_groupoid(gf.cyclic_table(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    ]
    worst = 0.0
    for g in groupoids:
        vn = gf.vn_basis(g)
        for t_op in vn[: min(len(vn), 5)]:
            alpha = gf.operator_to_module_map(g, t_op)
            for _ in range(4):
                f, h = random_function(g, rng), random_function(g, rng)
                # commutant pairing at units
                lhs, rhs = gf.regular.apply_operator_identity_check(g, t_op, f, h)
                worst = max(worst, float(np.abs(lhs - rhs).max()))
                # induced module map against the inner product
                got = alpha(gf.convolve(g, h, gf.star(g, f)))
                worst = max(worst, float(np.abs(got - gf.d_inner(g, t_op @ f, h)).max()))
        for _ in range(6):
            f, xi, eta = (random_function(g, rng) for _ in range(3))
            coeff = gf.regular_coefficient(g, xi, eta)
            lhs = gf.d_inner(g, gf.left_op(g, f) @ xi, eta)
            rhs = np.array(
                [np.sum(g.weights[t] * np.conj(f[t]) * coeff[t]) for t in g.r_fibers]
            )
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            b = rng.standard_normal(g.n_units) + 1j * rng.standard_normal(g.n_units)
            h = random_function(g, rng)
            left = gf.module_action(g, b, gf.convolve(g, f, h), "right")
            right = gf.convolve(g, gf.module_action(g, b, f, "right"), h)
            worst = max(worst, float(np.abs(left - right).max()))
            left = gf.module_action(g, b, gf.convolve(g, f, h), "left")
            right = gf.convolve(g, f, gf.module_action(g, b, h, "left"))
            worst = max(worst, float(np.abs(left - right).max()))
        for a in gf.enumerate_bisections(g)[:6]:
            f, h = random_function(g, rng), random_function(g, rng)
            left = gf.act_bisection(g, a, gf.convolve(g, f, h), "left")
            right = gf.convolve(g, f, gf.act_bisection(g, a, h, "left"))
            worst = max(worst, float(np.abs(left - right).max()))
            left = gf.act_bisection(g, a, gf.convolve(g, f, h), "right")
            right = gf.convolve(g, gf.act_bisection(g, a, f, "right"), h)
            worst = max(worst, float(np.abs(left - right).max()))
    ok = worst <= tol
    _conclude(4, f"operator identities, worst defect {worst:.2e}", ok)


def test_criterion_5_norm_chain_and_equalities():
    rng = np.random.default_rng(50)
    sdp_time = 0.0
    ok = True
    worst_cb_gap = 0.0
    worst_bracket = 0.0
    for n, trials in ((2, 38), (3, 12)):
        g = gf.pair_groupoid(n)
        for _ in range(trials):
            phi = random_function(g, rng)
            start = time.monotonic()
            lower, upper = gf.fourier_norm_bounds(g, phi)
            cb = gf.schur_cb_norm(phi.reshape(n, n))
            sdp_time += time.monotonic() - start
            fs = lower.witness["stieltjes"]
            sup = float(np.abs(phi).max())
            ok &= sup <= cb.value + 1e-8
            ok &= cb.value <= fs.value + 1e-5
            ok &= fs.value <= upper.value + 1e-6
            worst_cb_gap = max(worst_cb_gap, abs(cb.value - fs.value))
            worst_bracket = max(
                worst_bracket, abs(upper.value - cb.value), abs(lower.value - cb.value)
            )
    ok &= worst_cb_gap <= 1e-5
    ok &= worst_bracket <= 1e-4
    pd_worst = 0.0
    for g in (
        gf.pair_groupoid(2),
        gf.pair_groupoid(3),
        gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)]),
        gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)], unit_weights=[2.0, 0.5]),
        gf.transformation_groupoid(gf.cyclic_table(2), [[0, 1], [1, 0]]),
    ):
        for _ in range(2):
            phi = random_pd(g, rng)
            start = time.monotonic()
            cert = gf.fourier_stieltjes_norm(g, phi)
            sdp_time += time.monotonic() - start
            pd_worst = max(
                pd_worst, abs(cert.value - float(np.max(phi[g.unit_arrows].real)))
            )
    ok &= pd_worst <= 1e-6
    ok &= sdp_time < 60.0
    _conclude(
        5,
        f"norm chain on 50 functions (cb gap {worst_cb_gap:.1e}, "
        f"bracket {worst_bracket:.1e}, pd {pd_worst:.1e}, sdp {sdp_time:.1f}s)",
        ok,
    )


def test_criterion_6_operator_norm_bounds():
    rng = np.random.default_rng(60)
    groupoids = [
        gf.pair_groupoid(3),
        gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)], unit_weights=[2.0, 0.5]),
    ]
    ok = True
    probes = 0
    cstar_worst = 0.0
    for g in groupoids:
        for _ in range(10):
            f = random_function(g, rng)
            ok &= gf.operator_norm(g, gf.right_op(g, f)) <= gf.i_norm(g, f) + 1e-12
            bound = gf.i_norm_range(g, f)
            lf = gf.left_op(g, f)
            for _ in range(55):
                xi = random_function(g, rng)
                ok &= gf.section_norm(g, lf @ xi) <= bound * gf.section_norm(g, xi) + 1e-9
                probes += 1
            lhs = gf.reduced_norm(g, gf.convolve(g, gf.star(g, f), f))
            cstar_worst = max(cstar_worst, abs(lhs - gf.reduced_norm(g, f) ** 2))
    ok &= probes >= 1000
    ok &= cstar_worst <= 1e-9
    _conclude(6, f"{probes} contraction probes, c*-identity defect {cstar_worst:.2e}", ok)


def test_criterion_7_bisection_duality_roundtrip():
    start = time.monotonic()
    ok = True
    for g, expected in (
        (gf.pair_groupoid(2), 2),
        (gf.pair_groupoid(3), 6),
        (gf.pair_groupoid(4), 24),
        (gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)]), 6),
        (gf.transformation_groupoid(gf.cyclic_table(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]]), 6),
    ):
        rep = gf.duality_report(g)
        ok &= rep.bisection_count == expected
        ok &= all(rep.roundtrip_ok) and rep.injective and rep.product_spot_ok
        ok &= all(rep.arrows_on_bisections)
    for n, order in ((2, 2), (3, 6), (4, 24)):
        g = gf.pair_groupoid(n)
        gamma = gf.enumerate_bisections(g)
        ok &= len(gamma) == order
        to_perm = {a: tuple(np.argsort(gf.source_permutation(g, a))) for a in gamma}
        ok &= len(set(to_perm.values())) == order
        for a in gamma:
            for b in gamma:
                ab = gf.bisection_product(g, a, b)
                composed = tuple(to_perm[a][to_perm[b][u]] for u in range(n))
                ok &= to_perm[ab] == composed
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _conclude(7, f"duality round trips ({elapsed:.2f}s)", ok)


def test_criterion_8_negative_controls():
    rng = np.random.default_rng(80)
    ok = True

    # corrupted module maps fail the pair axioms with the right witnesses
    g3 = gf.pair_groupoid(3)
    a, b = gf.enumerate_bisections(g3)[1], gf.enumerate_bisections(g3)[4]
    report = gf.verify_module_map_pair(
        g3, gf.range_evaluation_map(g3, a), gf.source_evaluation_map(g3, b)
    )
    ok &= report.unit_bijection is None and not report.ok
    broken = gf.ModuleMap(matrix=np.ones((3, 9)), side="right")
    report = gf.verify_module_map_pair(g3, broken, gf.source_evaluation_map(g3, a))
    ok &= not report.module_law_ok
    ok &= any("module law" in f for f in report.failures)

    # non-positive-definite functions produce negative-form eigenvector witnesses
    for _ in range(20):
        phi = random_function(g3, rng)
        verdict = gf.is_positive_definite(g3, phi)
        if verdict:
            continue
        val = gf.quadratic_form(g3, phi, verdict.unit, verdict.vector)
        ok &= val.real < 0 or abs(val.imag) > 1e-12

    # Haar-invariance violations are rejected
    g2 = gf.pair_groupoid(2)
    bad = dataclasses.replace(g2, weights=np.array([1.0, 2.0, 1.0, 1.0]))
    report = gf.validate(bad)
    ok &= not report.ok and any("Haar" in v for v in report.violations)

    _conclude(8, "negative controls", ok)
