"""Verification suites over a groupoid: each suite emits pass/fail records.

Every record carries the achieved defect, the tolerance it was compared
against, and a short witness string.  The suites are deterministic given the
seed and are shared by the command line driver and the test suite.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import duality as dual
from . import norms as nrm
from . import positivity as pos
from . import regular as reg
from .groupoid import FiniteGroupoid, UndefinedProductError, enumerate_bisections, validate


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str  # pass | fail | warn | info
    value: str
    tolerance: str
    witness: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _rec(name, defect, tol, witness="") -> CheckRecord:
    status = "pass" if defect <= tol else "fail"
    return CheckRecord(name, status, f"{defect:.3e}", f"{tol:.1e}", witness)


def _random_function(g, rng) -> np.ndarray:
    return rng.standard_normal(g.n_arrows) + 1j * rng.standard_normal(g.n_arrows)


def _random_pd(g, rng) -> np.ndarray:
    f = _random_function(g, rng)
    phi = pos.regular_coefficient(g, f, f)
    if rng.random() < 0.5:
        h = _random_function(g, rng)
        phi = phi + 0.5 * pos.regular_coefficient(g, h, h)
    return phi


def suite_axioms(g: FiniteGroupoid, rng, tol: float) -> list[CheckRecord]:
    out = []
    report = validate(g)
    out.append(
        CheckRecord(
            "axioms/validate",
            "pass" if report.ok else "fail",
            f"{len(report.violations)} violations",
            "0",
            report.violations[0] if report.violations else "",
        )
    )
    worst = 0.0
    # left translation by x carries the fiber of source(x) onto that of range(x)
    translatable = g.source_of[:, None] == g.range_of[None, :]
    for _ in range(4):
        f = _random_function(g, rng)
        lhs = np.where(translatable, f[g.compose_table], 0) @ g.weights
        fiber_mass = np.zeros(g.n_units, dtype=complex)
        np.add.at(fiber_mass, g.range_of, g.weights * f)
        rhs = fiber_mass[g.range_of]
        worst = max(worst, float(np.abs(lhs - rhs).max(initial=0.0)))
    out.append(_rec("axioms/haar-left-invariance", worst, tol * 10))
    gamma = enumerate_bisections(g)
    if g.n_arrows <= 12:
        count = 0
        for picks in itertools.product(*[map(int, fib) for fib in g.r_fibers]):
            if sorted(int(g.source_of[x]) for x in picks) == list(range(g.n_units)):
                count += 1
        out.append(
            CheckRecord(
                "axioms/bisection-count",
                "pass" if count == len(gamma) else "fail",
                f"{len(gamma)} (exhaustive {count})",
                "exact",
            )
        )
    if report.ok and len(gamma) and len(gamma) <= 24:
        picks = np.array([a.picks for a in gamma])
        # product[j, i]: gamma[i] gamma[j], whose pick at u is gamma[i]'s pick at u
        # composed with gamma[j]'s pick at its source
        product = g.compose_table[picks, picks[:, g.source_of[picks]]]
        # table[i, j]: the index of gamma[i] gamma[j] in gamma, -1 when it is not there
        hits = np.all(product[:, :, None, :] == picks, axis=3)
        table = np.where(hits.any(axis=2), hits.argmax(axis=2), -1).T
        identity = np.flatnonzero(np.all(picks == g.unit_arrows, axis=1))
        ok = identity.size == 1 and np.all(table >= 0) and np.all((table == identity).any(axis=1))
        if ok:
            # (ab)c against a(bc) for every a, b, c
            ok = np.array_equal(table[table], table[np.arange(len(gamma))[:, None, None], table])
        out.append(
            CheckRecord(
                "axioms/bisection-group", "pass" if ok else "fail", f"order {len(gamma)}", "exact"
            )
        )
    return out


def suite_algebra(g: FiniteGroupoid, rng, tol: float, trials: int = 12) -> list[CheckRecord]:
    out = []
    e = alg.convolution_identity(g)
    worst_assoc = worst_star = worst_id = worst_mod = 0.0
    sub_ok = True
    for _ in range(trials):
        f, h, k = (_random_function(g, rng) for _ in range(3))
        left = alg.convolve(g, alg.convolve(g, f, h), k)
        right = alg.convolve(g, f, alg.convolve(g, h, k))
        worst_assoc = max(worst_assoc, float(np.abs(left - right).max()))
        anti = alg.star(g, alg.convolve(g, f, h)) - alg.convolve(
            g, alg.star(g, h), alg.star(g, f)
        )
        worst_star = max(worst_star, float(np.abs(anti).max()))
        worst_id = max(
            worst_id,
            float(np.abs(alg.convolve(g, e, f) - f).max()),
            float(np.abs(alg.convolve(g, f, e) - f).max()),
        )
        if alg.i_norm_range(g, alg.convolve(g, f, h)) > \
                alg.i_norm_range(g, f) * alg.i_norm_range(g, h) + 1e-9:
            sub_ok = False
        b = rng.standard_normal(g.n_units) + 1j * rng.standard_normal(g.n_units)
        lhs = alg.module_action(g, b, alg.convolve(g, f, h), "right")
        rhs = alg.convolve(g, alg.module_action(g, b, f, "right"), h)
        worst_mod = max(worst_mod, float(np.abs(lhs - rhs).max()))
        lhs = alg.module_action(g, b, alg.convolve(g, f, h), "left")
        rhs = alg.convolve(g, f, alg.module_action(g, b, h, "left"))
        worst_mod = max(worst_mod, float(np.abs(lhs - rhs).max()))
    out.append(_rec("algebra/associativity", worst_assoc, tol * 100))
    out.append(_rec("algebra/involution-antihom", worst_star, tol * 100))
    out.append(_rec("algebra/identity", worst_id, tol * 100))
    out.append(
        CheckRecord(
            "algebra/i-norm-submultiplicative", "pass" if sub_ok else "fail", "", "1e-9"
        )
    )
    out.append(_rec("algebra/module-action", worst_mod, tol * 100))
    star_iso = 0.0
    for _ in range(trials):
        f = _random_function(g, rng)
        star_iso = max(star_iso, abs(alg.i_norm(g, alg.star(g, f)) - alg.i_norm(g, f)))
    out.append(_rec("algebra/involution-isometry", star_iso, tol * 100))
    gamma = enumerate_bisections(g)
    worst_b = 0.0
    for a in gamma[: min(len(gamma), 8)]:
        f, h = _random_function(g, rng), _random_function(g, rng)
        lhs = alg.act_bisection(g, a, alg.convolve(g, f, h), "left")
        rhs = alg.convolve(g, f, alg.act_bisection(g, a, h, "left"))
        worst_b = max(worst_b, float(np.abs(lhs - rhs).max()))
        lhs = alg.act_bisection(g, a, alg.convolve(g, f, h), "right")
        rhs = alg.convolve(g, alg.act_bisection(g, a, f, "right"), h)
        worst_b = max(worst_b, float(np.abs(lhs - rhs).max()))
    if gamma:
        out.append(_rec("algebra/bisection-translation", worst_b, tol * 100))
    return out


def suite_regular(g: FiniteGroupoid, rng, tol: float, trials: int = 8) -> list[CheckRecord]:
    out = []
    worst_adj = worst_cstar = worst_commute = worst_45 = 0.0
    bound_ok = True
    for _ in range(trials):
        f, h, k = (_random_function(g, rng) for _ in range(3))
        rf = reg.right_op(g, f)
        lhs = reg.d_inner(g, rf @ h, k)
        rhs = reg.d_inner(g, h, reg.right_op(g, alg.star(g, f)) @ k)
        worst_adj = max(worst_adj, float(np.abs(lhs - rhs).max()))
        if reg.operator_norm(g, rf) > alg.i_norm(g, f) + 1e-9:
            bound_ok = False
        c_star = abs(
            reg.reduced_norm(g, alg.convolve(g, alg.star(g, f), f)) - reg.reduced_norm(g, f) ** 2
        )
        worst_cstar = max(worst_cstar, c_star)
        lf = reg.left_op(g, f)
        rh = reg.right_op(g, h)
        worst_commute = max(worst_commute, float(np.abs(lf @ rh - rh @ lf).max()))
        coeff = pos.regular_coefficient(g, h, k)
        lhs = reg.d_inner(g, lf @ h, k)
        rhs = np.array(
            [np.sum(g.weights[t] * np.conj(f[t]) * coeff[t]) for t in g.r_fibers]
        )
        worst_45 = max(worst_45, float(np.abs(lhs - rhs).max()))
        xi = _random_function(g, rng)
        nx = reg.section_norm(g, xi)
        if nx > 0 and reg.section_norm(g, lf @ xi) > alg.i_norm_range(g, f) * nx + 1e-9:
            bound_ok = False
    out.append(_rec("regular/right-adjoint", worst_adj, tol * 100))
    out.append(
        CheckRecord("regular/norm-bounds", "pass" if bound_ok else "fail", "", "1e-9")
    )
    out.append(_rec("regular/cstar-identity", worst_cstar, 1e-9 * 10))
    out.append(_rec("regular/left-right-commute", worst_commute, tol * 100))
    out.append(_rec("regular/left-pairing", worst_45, tol * 10))

    # on a structure that is not a groupoid the right translations need not be
    # partial permutations; the commutant then fails with the offending generator
    witness = ""
    try:
        vn = reg.vn_basis(g)
    except ValueError as exc:
        vn, witness = [], str(exc)
    left_span = reg.span_basis(reg.left_delta_ops(g))
    same_dim = len(vn) == len(left_span)
    contained = all(reg.in_span(vn, m) for m in left_span)
    out.append(
        CheckRecord(
            "regular/commutant-is-left-convolutions",
            "pass" if same_dim and contained else "fail",
            f"dim {len(vn)} vs {len(left_span)}",
            "rank 1e-9",
            witness,
        )
    )
    worst_pair = 0.0
    for t_op in vn[: min(len(vn), 6)]:
        for _ in range(3):
            f, h = _random_function(g, rng), _random_function(g, rng)
            lhs, rhs = reg.apply_operator_identity_check(g, t_op, f, h)
            worst_pair = max(worst_pair, float(np.abs(lhs - rhs).max()))
    out.append(_rec("regular/commutant-pairing", worst_pair, tol * 10))
    mats = [reg.operator_to_module_map(g, t_op).matrix.ravel() for t_op in vn]
    if mats:
        stacked = np.stack(mats)
        rank = int(np.linalg.matrix_rank(stacked, tol=1e-9))
        out.append(
            CheckRecord(
                "regular/module-map-injective",
                "pass" if rank == len(vn) else "fail",
                f"rank {rank} of {len(vn)}",
                "rank 1e-9",
            )
        )
    reduced = reg.reduced_algebra_basis(g)
    dims = (g.n_arrows ** 2, sum(len(t) ** 2 for t in g.r_fibers), len(vn), len(reduced))
    n = g.n_units
    is_pair = g.n_arrows == n * n and dims[1] == n ** 3
    status = "info"
    if is_pair:
        status = "pass" if dims == (n ** 4, n ** 3, n ** 2, n ** 2) else "fail"
    out.append(
        CheckRecord(
            "regular/dimensions",
            status,
            f"bounded {dims[0]}, adjointable {dims[1]}, commutant {dims[2]}, reduced {dims[3]}",
            "exact" if is_pair else "",
        )
    )
    inter = reg.intersect_spans(vn, reduced)
    eye_in = reg.in_span(inter, np.eye(g.n_arrows, dtype=complex))
    out.append(
        CheckRecord(
            "regular/commutant-meets-reduced",
            "pass" if eye_in else "fail",
            f"dim {len(inter)}",
            "rank 1e-9",
            "identity operator membership",
        )
    )
    return out


def suite_positivity(g: FiniteGroupoid, rng, tol: float, trials: int = 30) -> list[CheckRecord]:
    out = []
    agree = True
    recon_worst = 0.0
    sqrt_worst = 0.0
    for i in range(trials):
        if i % 3 == 0:
            phi = _random_pd(g, rng)
        elif i % 3 == 1:
            phi = _random_function(g, rng)
        else:
            phi = _random_function(g, rng)
            phi = (phi + alg.star(g, phi)) / 2
        v1 = bool(pos.is_positive_definite(g, phi, tol))
        v2 = bool(pos.pd_verdict_pointset(g, phi, tol))
        v3 = bool(pos.pd_verdict_integral(g, phi, tol))
        if not v1 == v2 == v3:
            agree = False
        if v1:
            bundle, xi = pos.gns_bundle(g, phi)
            back = pos.coefficient(g, bundle, xi, xi)
            recon_worst = max(recon_worst, float(np.abs(back - phi).max()))
            if g.counting:
                sec = pos.pd_to_section(g, phi)
                back2 = pos.regular_coefficient(g, sec, sec)
                sqrt_worst = max(sqrt_worst, float(np.abs(back2 - phi).max()))
    out.append(
        CheckRecord("positivity/criteria-agree", "pass" if agree else "fail", "", f"{tol:.1e}")
    )
    out.append(_rec("positivity/gns-reconstruction", recon_worst, 1e-10))
    if g.counting:
        out.append(_rec("positivity/sqrt-reconstruction", sqrt_worst, 1e-10))
    delta_worst = 0.0
    for x in range(g.n_arrows):
        u = int(g.source_of[x])
        f = np.zeros(g.n_arrows, dtype=complex)
        f[g.unit_arrows[u]] = 1.0 / g.weights[g.unit_arrows[u]]
        back = pos.regular_coefficient(g, f, alg.delta(g, x))
        delta_worst = max(delta_worst, float(np.abs(back - alg.delta(g, x)).max()))
    out.append(_rec("positivity/point-masses-are-coefficients", delta_worst, tol * 10))
    closure_ok = True
    for _ in range(5):
        phi = _random_pd(g, rng)
        if not pos.is_positive_definite(g, np.conj(phi), tol):
            closure_ok = False
        if not pos.is_positive_definite(g, alg.star(g, phi), tol):
            closure_ok = False
        herm = float(np.abs(alg.star(g, phi) - phi).max())
        bound_ok = all(
            abs(phi[x]) <= np.sqrt(
                abs(phi[g.unit_arrows[g.range_of[x]]]) * abs(phi[g.unit_arrows[g.source_of[x]]])
            ) + 1e-9
            for x in range(g.n_arrows)
        )
        if herm > 1e-9 or not bound_ok:
            closure_ok = False
    out.append(
        CheckRecord(
            "positivity/pd-closure", "pass" if closure_ok else "fail", "", "1e-9"
        )
    )
    return out


def suite_norms(g: FiniteGroupoid, rng, tol: float, trials: int = 5) -> list[CheckRecord]:
    out = []
    chain_ok = True
    pd_worst = 0.0
    sym_worst = 0.0
    witness_ok = True
    arrow_of = nrm._pair_structure(g)
    cb_gap = 0.0
    for i in range(trials):
        phi = _random_function(g, rng)
        lower, upper = nrm.fourier_norm_bounds(g, phi)
        fs = lower.witness["stieltjes"]
        sup = float(np.abs(phi).max(initial=0.0))
        if not sup <= fs.value + 1e-8 or not fs.value <= upper.value + 1e-6:
            chain_ok = False
        fs_conj = nrm.fourier_stieltjes_norm(g, np.conj(phi))
        fs_star = nrm.fourier_stieltjes_norm(g, alg.star(g, phi))
        sym_worst = max(sym_worst, abs(fs.value - fs_conj.value), abs(fs.value - fs_star.value))
        blocks_min = _stieltjes_witness_min_eig(g, fs, phi)
        if blocks_min < -1e-8:
            witness_ok = False
        total = np.zeros(g.n_arrows, dtype=complex)
        cost = 0.0
        for f, h in upper.witness["terms"]:
            total += pos.regular_coefficient(g, f, h)
            cost += reg.section_norm(g, f) * reg.section_norm(g, h)
        if float(np.abs(total - phi).max(initial=0.0)) > 1e-8 * max(1.0, sup):
            witness_ok = False
        if abs(cost - upper.value) > 1e-6 * max(1.0, upper.value):
            witness_ok = False
        if arrow_of is not None:
            cb = nrm.schur_cb_norm(phi[arrow_of])
            cb_gap = max(cb_gap, abs(cb.value - fs.value))
            if not sup <= cb.value + 1e-8:
                chain_ok = False
    for _ in range(3):
        phi = _random_pd(g, rng)
        fs = nrm.fourier_stieltjes_norm(g, phi)
        pd_worst = max(
            pd_worst, abs(fs.value - float(np.max(phi[g.unit_arrows].real)))
        )
    out.append(
        CheckRecord("norms/order-chain", "pass" if chain_ok else "fail", "", "1e-6")
    )
    out.append(_rec("norms/positive-definite-exact", pd_worst, 1e-6))
    out.append(_rec("norms/conjugation-symmetry", sym_worst, 1e-6))
    out.append(
        CheckRecord("norms/witness-reevaluation", "pass" if witness_ok else "fail", "", "1e-8")
    )
    if arrow_of is not None:
        out.append(_rec("norms/cb-equals-stieltjes", cb_gap, 1e-5))
    return out


def _stieltjes_witness_min_eig(g, cert, phi) -> float:
    """Smallest eigenvalue of the witness's completion block [[rho, phi], [phi*, tau]]
    over every unit, read from the Gram arrow ids of each fiber class."""
    rho, tau = cert.witness["rho"], cert.witness["tau"]
    low = np.inf
    for c in g.fiber_classes:
        blocks = np.block([[rho[c.gram], phi[c.gram]],
                           [phi[c.gram].conj().swapaxes(1, 2), tau[c.gram]]])
        blocks = (blocks + blocks.conj().swapaxes(1, 2)) / 2
        low = min(low, float(np.linalg.eigvalsh(blocks)[:, 0].min()))
    return low


def suite_duality(g: FiniteGroupoid, rng, tol: float) -> list[CheckRecord]:
    out = []
    report = dual.duality_report(g)
    count = report.bisection_count
    status = "warn" if count == 0 else "pass"
    out.append(
        CheckRecord(
            "duality/bisection-count",
            status,
            str(count),
            "",
            "no bisections exist" if count == 0 else "",
        )
    )
    out.append(
        CheckRecord(
            "duality/arrow-coverage",
            "pass" if all(report.arrows_on_bisections) else "warn",
            f"{sum(report.arrows_on_bisections)}/{g.n_arrows}",
            "",
        )
    )
    out.append(
        CheckRecord(
            "duality/round-trips",
            "pass" if all(report.roundtrip_ok) else "fail",
            f"{sum(report.roundtrip_ok)}/{count}",
            "exact",
            report.failures[0] if report.failures else "",
        )
    )
    out.append(
        CheckRecord("duality/injective", "pass" if report.injective else "fail", "", "exact")
    )
    out.append(
        CheckRecord(
            "duality/product-compatible",
            "pass" if report.product_spot_ok else "fail",
            "",
            "exact",
        )
    )
    gamma = enumerate_bisections(g)
    worst = 0.0
    for a in gamma[: min(len(gamma), 6)]:
        f = _random_function(g, rng)
        worst = max(worst, dual.translation_covariance_defect(g, a, f))
    if gamma:
        out.append(_rec("duality/translation-covariance", worst, tol * 10))
    return out


SUITES = {
    "axioms": suite_axioms,
    "algebra": suite_algebra,
    "regular-rep": suite_regular,
    "positivity": suite_positivity,
    "norms": suite_norms,
    "duality": suite_duality,
}


def run_suites(
    g: FiniteGroupoid, names, seed: int = 0, tol: float = 1e-9, timings: dict | None = None
) -> list[CheckRecord]:
    """Records of the named suites, in order; ``timings`` receives each suite's
    (CPU, wall) seconds.

    A suite that needs a product the structure leaves undefined (it is not a
    groupoid) gives one failing ``composable-pairs`` record naming that product.
    """
    rng = np.random.default_rng(seed)
    records: list[CheckRecord] = []
    for name in names:
        start, wall = time.process_time(), time.perf_counter()
        try:
            records.extend(SUITES[name](g, rng, tol))
        except UndefinedProductError as err:
            prefix = name.split("-")[0]
            records.append(CheckRecord(f"{prefix}/composable-pairs", "fail", "", "exact", str(err)))
        if timings is not None:
            timings[name] = time.process_time() - start, time.perf_counter() - wall
    return records
