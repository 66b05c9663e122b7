"""Factorization norms: the coefficient norm SDP, Schur multiplier cb-norms,
and two-sided bounds for the decomposition norm.

The coefficient norm of phi is computed from its block completion problem:
one Hermitian block per unit, holding phi and its involution off-diagonal and
two free conjugation-symmetric functions on the diagonal, with the largest
unit value minimized subject to every block being PSD.  For positive definite
phi the optimum is the largest unit value of phi, and on pair groupoids the
problem specializes entry-for-entry to the classical Schur multiplier SDP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import arrow_function
from .groupoid import FiniteGroupoid, product_with_pair_groupoid
from .numerics import orthonormal_span
from .positivity import (
    is_positive_definite,
    off_diagonal_embed,
    pd_to_section,
    regular_coefficient,
)
from .regular import section_norm
from .sdp import DiagBoundSdp, SdpSolution, solve_diag_bound_sdp


@dataclass(frozen=True)
class NormCertificate:
    """A norm value together with the object that certifies it.

    kind 'optimal' carries a feasible completion (rho, tau) or (p, q) and the
    solver's certified lower bound, Newton steps and status; 'upper' carries a
    list of coefficient factorization terms; 'lower' carries the arrow that
    attains the sup bound and the dual blocks that certify the SDP bound.
    """

    value: float
    kind: str
    witness: dict


def _canonical_arrow(g: FiniteGroupoid, z: int) -> tuple[int, bool]:
    zi = int(g.inverse_of[z])
    return (z, False) if z <= zi else (zi, True)


def stieltjes_problem(g: FiniteGroupoid, phi) -> DiagBoundSdp:
    """The block completion problem whose optimum is the coefficient norm bound."""
    phi = arrow_function(g, phi)
    _, _, y, starts = g.composable_pairs
    p = DiagBoundSdp()
    for u in range(g.n_units):
        fiber = g.r_fibers[u]
        m = fiber.shape[0]
        b = p.add_block(2 * m)
        # the Gram block of arrow ids: inverse(fiber[pi]) fiber[qi] at (pi, qi)
        ids = y[starts[fiber] + np.arange(m)[:, None]]
        for pi in range(m):
            for qi in range(m):
                z = int(ids[pi, qi])
                p.entry_fixed(b, pi, qi + m, phi[z])
                if pi <= qi:
                    c, conj = _canonical_arrow(g, z)
                    self_inverse = g.inverse_of[z] == z
                    for name, off in (("r", 0), ("t", m)):
                        p.entry_var(b, pi + off, qi + off, (name, c), conj=conj)
                        if self_inverse and pi < qi:
                            # conjugation symmetry pins a self-inverse arrow's
                            # value to the real axis: tie both orientations
                            p.entry_var(b, qi + off, pi + off, (name, c), conj=conj)
    for e in map(int, g.unit_arrows):
        p.objective_var(("r", e))
        p.objective_var(("t", e))
    return p


def _stieltjes_seeds(g: FiniteGroupoid, phi) -> tuple[list[dict], float]:
    """Candidate witnesses: the function itself when positive definite, and a
    spectral diagonal completion.  Also returns the sup-norm lower bound."""
    phi = arrow_function(g, phi)
    seeds = []
    # the canonical arrow of each pair {z, inverse(z)} is the smaller id
    keys = np.flatnonzero(np.arange(g.n_arrows) <= g.inverse_of).tolist()
    if is_positive_definite(g, phi):
        seeds.append({(name, c): complex(phi[c]) for name in ("r", "t") for c in keys})
    sigma = max(
        (float(np.linalg.norm(phi[c.gram], 2, axis=(1, 2)).max()) for c in g.fiber_classes
         if c.gram.size),
        default=0.0,
    )
    diag_seed = {(name, c): 0.0 for name in ("r", "t") for c in keys}
    for e in map(int, g.unit_arrows):
        diag_seed[("r", e)] = sigma
        diag_seed[("t", e)] = sigma
    seeds.append(diag_seed)
    lower = float(np.abs(phi).max(initial=0.0))
    return seeds, lower


def _witness_functions(g: FiniteGroupoid, solution: SdpSolution) -> tuple[np.ndarray, np.ndarray]:
    rho = np.zeros(g.n_arrows, dtype=complex)
    tau = np.zeros(g.n_arrows, dtype=complex)
    for z in range(g.n_arrows):
        c, conj = _canonical_arrow(g, z)
        r = complex(solution.variables[("r", c)])
        t = complex(solution.variables[("t", c)])
        rho[z] = np.conj(r) if conj else r
        tau[z] = np.conj(t) if conj else t
    return rho, tau


def _telemetry(solution: SdpSolution) -> dict:
    return {"lower": solution.lower, "iterations": solution.iterations, "status": solution.status}


def _solve_stieltjes(g: FiniteGroupoid, phi, rel_gap: float) -> tuple[NormCertificate, SdpSolution]:
    phi = arrow_function(g, phi)
    problem = stieltjes_problem(g, phi)
    seeds, lower = _stieltjes_seeds(g, phi)
    solution = solve_diag_bound_sdp(problem, lower=lower, seeds=tuple(seeds), rel_gap=rel_gap)
    rho, tau = _witness_functions(g, solution)
    witness = {"rho": rho, "tau": tau, **_telemetry(solution)}
    return NormCertificate(solution.value, "optimal", witness), solution


def fourier_stieltjes_norm(g: FiniteGroupoid, phi, rel_gap: float = 1e-7) -> NormCertificate:
    """Coefficient norm bound of phi via the block completion SDP.

    Always >= the sup norm; equal to the largest unit value when phi is
    positive definite; equal to the Schur multiplier cb-norm on pair
    groupoids.  The witness is a feasible (rho, tau) completion, with the
    certified lower bound on the optimum under "lower".
    """
    return _solve_stieltjes(g, phi, rel_gap)[0]


# ---------------------------------------------------------------------------
# Schur multipliers


def schur_problem(a) -> DiagBoundSdp:
    """min t with [[P, a], [a*, Q]] PSD and every diagonal entry of P, Q <= t."""
    n = a.shape[0]
    p = DiagBoundSdp()
    b = p.add_block(2 * n)
    for i in range(n):
        for j in range(n):
            p.entry_fixed(b, i, j + n, a[i, j])
            if i <= j:
                p.entry_var(b, i, j, ("p", i, j))
                p.entry_var(b, i + n, j + n, ("q", i, j))
    for i in range(n):
        p.objective_var(("p", i, i))
        p.objective_var(("q", i, i))
    return p


def schur_cb_norm(a, rel_gap: float = 1e-7) -> NormCertificate:
    """Completely bounded norm of the Schur (entrywise) multiplier by a.

    The optimum of ``schur_problem(a)``.  The witness carries the diagonal
    blocks, a factorization a_ij = sum_m left[i, m] conj(right[j, m]) with
    row norms <= sqrt(t), and the solver's certified lower bound.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    n = a.shape[0]
    sigma = float(np.linalg.norm(a, 2)) if a.size else 0.0
    seed = {("p", i, j): (sigma if i == j else 0.0) for i in range(n) for j in range(i, n)}
    seed.update({("q", i, j): (sigma if i == j else 0.0) for i in range(n) for j in range(i, n)})
    lower = float(np.abs(a).max(initial=0.0))
    solution = solve_diag_bound_sdp(schur_problem(a), lower=lower, seeds=(seed,), rel_gap=rel_gap)
    pm = np.zeros((n, n), dtype=complex)
    qm = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            pm[i, j] = solution.variables[("p", i, j)]
            pm[j, i] = np.conj(pm[i, j])
            qm[i, j] = solution.variables[("q", i, j)]
            qm[j, i] = np.conj(qm[i, j])
    left, right = _factorize_completion(pm, a, qm)
    witness = {"p_block": pm, "q_block": qm, "left": left, "right": right, **_telemetry(solution)}
    return NormCertificate(solution.value, "optimal", witness)


def _factorize_completion(pm, a, qm) -> tuple[np.ndarray, np.ndarray]:
    """Row-vector factorization a_ij = <x_i, y_j> from a PSD completion,
    compressed to inner dimension <= n and padded back to n columns."""
    n = a.shape[0]
    big = np.block([[pm, a], [a.conj().T, qm]])
    vals, vecs = np.linalg.eigh((big + big.conj().T) / 2)
    keep = vals > 1e-12 * max(1.0, float(vals.max(initial=0.0)))
    c = (np.sqrt(vals[keep])[:, None] * vecs[:, keep].conj().T)
    xs = c[:, :n].T
    ys = c[:, n:].T
    basis = orthonormal_span(ys)
    xs = xs @ basis.conj().T @ basis if len(basis) else np.zeros_like(xs)
    gx = (basis.conj() @ xs.T).T if len(basis) else np.zeros((n, 0))
    gy = (basis.conj() @ ys.T).T if len(basis) else np.zeros((n, 0))
    d = gx.shape[1]
    left = np.zeros((n, n), dtype=complex)
    right = np.zeros((n, n), dtype=complex)
    left[:, :d] = np.conj(gx)
    right[:, :d] = np.conj(gy)
    return left, right


# ---------------------------------------------------------------------------
# decomposition norm bounds


def _pair_structure(g: FiniteGroupoid) -> np.ndarray | None:
    """arrow_of[r, s] when g is a pair groupoid (one arrow per unit pair)."""
    n = g.n_units
    if g.n_arrows != n * n:
        return None
    arrow_of = np.full((n, n), -1, dtype=int)
    for x in range(g.n_arrows):
        u, v = int(g.range_of[x]), int(g.source_of[x])
        if arrow_of[u, v] != -1:
            return None
        arrow_of[u, v] = x
    return arrow_of


def _unit_weights_only(g: FiniteGroupoid) -> bool:
    return bool(np.abs(g.weights - 1.0).max(initial=0.0) <= 1e-12)


def _term_cost(g: FiniteGroupoid, terms) -> float:
    return float(sum(section_norm(g, f) * section_norm(g, h) for f, h in terms))


def _terms_reconstruct(g: FiniteGroupoid, terms, phi, tol: float = 1e-8) -> bool:
    total = np.zeros(g.n_arrows, dtype=complex)
    for f, h in terms:
        total += regular_coefficient(g, f, h)
    scale = max(1.0, float(np.abs(phi).max(initial=0.0)))
    return bool(np.abs(total - phi).max(initial=0.0) <= tol * scale)


def _delta_terms(g: FiniteGroupoid, phi) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-arrow point-mass decomposition; always succeeds, rarely tight."""
    terms = []
    for x in range(g.n_arrows):
        if phi[x] == 0:
            continue
        u = int(g.source_of[x])
        f = np.zeros(g.n_arrows, dtype=complex)
        f[g.unit_arrows[u]] = 1.0 / g.weights[g.unit_arrows[u]]
        h = np.zeros(g.n_arrows, dtype=complex)
        h[x] = phi[x]
        terms.append((f, h))
    return terms


def _pair_terms(g, arrow_of, stieltjes: NormCertificate, phi):
    """Single-coefficient factorization on a pair groupoid from the SDP witness."""
    n = arrow_of.shape[0]
    a = phi[arrow_of]
    rho, tau = stieltjes.witness["rho"], stieltjes.witness["tau"]
    left, right = _factorize_completion(rho[arrow_of], a, tau[arrow_of])
    f = np.zeros(g.n_arrows, dtype=complex)
    h = np.zeros(g.n_arrows, dtype=complex)
    for i in range(n):
        for m in range(n):
            h[arrow_of[i, m]] = left[i, m]
            f[arrow_of[i, m]] = right[i, m]
    return [(f, h)]


def _doubled_terms(g: FiniteGroupoid, stieltjes: NormCertificate, phi):
    """Two-coefficient decomposition through the block embedding on the doubled
    groupoid: reconstruct the embedded completion as a single coefficient there
    and split it back."""
    rho, tau = stieltjes.witness["rho"], stieltjes.witness["tau"]
    embedded = off_diagonal_embed(g, rho, phi, tau)
    gp = product_with_pair_groupoid(g)
    xi = pd_to_section(gp, embedded, tol=1e-7)
    # parts[x, i, j] = xi[product_arrow_id(x, i, j)]
    parts = xi.reshape(g.n_arrows, 2, 2)
    return [(parts[:, 1, 0], parts[:, 0, 0]), (parts[:, 1, 1], parts[:, 0, 1])]


def fourier_norm_bounds(
    g: FiniteGroupoid, phi, rel_gap: float = 1e-7
) -> tuple[NormCertificate, NormCertificate]:
    """Two-sided bounds for the decomposition norm inf sum ||f_k|| ||g_k||.

    Lower: the larger of the sup norm and the certified dual bound of the
    coefficient norm SDP; its witness holds the dual blocks Z, which are PSD
    and dual feasible in ``stieltjes_problem(g, phi)``, so that -<F0, Z>
    re-verifies the bound (None when the solver's seeded exit made the sup
    norm the bound).  Upper:
    the cheapest verified decomposition among a single-coefficient pair
    factorization, a positive-definite square-root coefficient, the doubled
    two-term split, and the point-mass fallback.
    """
    phi = arrow_function(g, phi)
    stieltjes, solution = _solve_stieltjes(g, phi, rel_gap)
    sup = float(np.abs(phi).max(initial=0.0))
    sup_arrow = int(np.abs(phi).argmax()) if g.n_arrows else 0
    lower = NormCertificate(
        max(sup, solution.lower),
        "lower",
        {"sup_arrow": sup_arrow, "stieltjes": stieltjes, "dual": solution.dual},
    )

    candidates: list[list[tuple[np.ndarray, np.ndarray]]] = []
    if _unit_weights_only(g):
        try:
            xi = pd_to_section(g, phi)
            candidates.append([(xi, xi)])
        except ValueError:
            pass
        arrow_of = _pair_structure(g)
        if arrow_of is not None:
            candidates.append(_pair_terms(g, arrow_of, stieltjes, phi))
        else:
            try:
                candidates.append(_doubled_terms(g, stieltjes, phi))
            except ValueError:
                pass
    candidates.append(_delta_terms(g, phi))

    best_terms = None
    best_cost = np.inf
    for terms in candidates:
        if not _terms_reconstruct(g, terms, phi):
            continue
        cost = _term_cost(g, terms)
        if cost < best_cost:
            best_cost, best_terms = cost, terms
    if best_terms is None:
        raise RuntimeError("no decomposition reconstructed the input; this should not happen")
    upper = NormCertificate(best_cost, "upper", {"terms": tuple(best_terms)})
    return lower, upper
