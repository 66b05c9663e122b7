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


def _arrow_variables(g: FiniteGroupoid) -> tuple[np.ndarray, np.ndarray]:
    """The variable id of rho at each arrow z, min(z, inverse(z)), and whether
    z holds its conjugate (z > inverse(z)); tau's ids are these plus n_arrows."""
    z = np.arange(g.n_arrows)
    return np.minimum(z, g.inverse_of), z > g.inverse_of


def stieltjes_problem(g: FiniteGroupoid, phi) -> DiagBoundSdp:
    """The block completion problem whose optimum is the coefficient norm bound.

    Block u is [[rho, phi], [phi*, tau]] read at the Gram block of arrow ids
    of the range fiber of u.  Conjugation symmetry holds by construction: the
    arrows z and inverse(z) share a variable, conjugated at the larger id, and
    a self-inverse arrow holds its variable unconjugated at both orientations,
    which pins it to the real axis.
    """
    phi = arrow_function(g, phi)
    ids, flip = _arrow_variables(g)
    s = 2 * max(c.gram.shape[1] for c in g.fiber_classes)
    data = np.zeros((g.n_units, s, s), dtype=complex)
    var = np.full(data.shape, -1)
    conj = np.zeros(data.shape, dtype=bool)
    sizes = np.zeros(g.n_units, dtype=int)
    for c in g.fiber_classes:
        m = c.gram.shape[1]
        top, bottom = slice(0, m), slice(m, 2 * m)
        data[c.units, top, bottom] = phi[c.gram]
        data[c.units, bottom, top] = phi[c.gram].conj().swapaxes(1, 2)
        var[c.units, top, top] = ids[c.gram]
        var[c.units, bottom, bottom] = ids[c.gram] + g.n_arrows
        conj[c.units, top, top] = conj[c.units, bottom, bottom] = flip[c.gram]
        sizes[c.units] = 2 * m
    objective = np.concatenate([g.unit_arrows, g.unit_arrows + g.n_arrows])
    return DiagBoundSdp(data, var, conj, sizes, objective)


def _stieltjes_seeds(g: FiniteGroupoid, phi) -> tuple[list[np.ndarray], float]:
    """Candidate witnesses: the function itself when positive definite, and a
    spectral diagonal completion.  Also returns the sup-norm lower bound."""
    phi = arrow_function(g, phi)
    seeds = []
    if is_positive_definite(g, phi):
        seeds.append(np.concatenate([phi, phi]))
    sigma = max(
        (float(np.linalg.norm(phi[c.gram], 2, axis=(1, 2)).max()) for c in g.fiber_classes
         if c.gram.size),
        default=0.0,
    )
    diag_seed = np.zeros(2 * g.n_arrows, dtype=complex)
    diag_seed[np.concatenate([g.unit_arrows, g.unit_arrows + g.n_arrows])] = sigma
    seeds.append(diag_seed)
    lower = float(np.abs(phi).max(initial=0.0))
    return seeds, lower


def _witness_functions(g: FiniteGroupoid, solution: SdpSolution) -> tuple[np.ndarray, np.ndarray]:
    ids, flip = _arrow_variables(g)
    rho, tau = solution.variables[ids], solution.variables[ids + g.n_arrows]
    return np.where(flip, rho.conj(), rho), np.where(flip, tau.conj(), tau)


def _telemetry(solution: SdpSolution) -> dict:
    return {"lower": solution.lower, "iterations": solution.iterations, "status": solution.status}


def _solve_stieltjes(g: FiniteGroupoid, phi) -> tuple[NormCertificate, SdpSolution]:
    phi = arrow_function(g, phi)
    problem = stieltjes_problem(g, phi)
    seeds, lower = _stieltjes_seeds(g, phi)
    solution = solve_diag_bound_sdp(problem, lower=lower, seeds=tuple(seeds))
    rho, tau = _witness_functions(g, solution)
    witness = {"rho": rho, "tau": tau, **_telemetry(solution)}
    return NormCertificate(solution.value, "optimal", witness), solution


def fourier_stieltjes_norm(g: FiniteGroupoid, phi) -> NormCertificate:
    """Coefficient norm bound of phi via the block completion SDP.

    Always >= the sup norm; equal to the largest unit value when phi is
    positive definite; equal to the Schur multiplier cb-norm on pair
    groupoids.  The witness is a feasible (rho, tau) completion, with the
    certified lower bound on the optimum under "lower".
    """
    return _solve_stieltjes(g, phi)[0]


# ---------------------------------------------------------------------------
# Schur multipliers


def schur_problem(a) -> DiagBoundSdp:
    """min t with [[P, a], [a*, Q]] PSD and every diagonal entry of P, Q <= t.

    P[i, j] is variable n min(i, j) + max(i, j), conjugated below the
    diagonal, and Q[i, j] is that id plus n**2.
    """
    n = a.shape[0]
    i, j = np.indices((n, n))
    ids = n * np.minimum(i, j) + np.maximum(i, j)
    top, bottom = slice(0, n), slice(n, 2 * n)
    data = np.zeros((1, 2 * n, 2 * n), dtype=complex)
    data[0, top, bottom] = a
    data[0, bottom, top] = np.conj(a).T
    var = np.full(data.shape, -1)
    var[0, top, top], var[0, bottom, bottom] = ids, ids + n * n
    conj = np.zeros(data.shape, dtype=bool)
    conj[0, top, top] = conj[0, bottom, bottom] = i > j
    objective = np.concatenate([ids.diagonal(), ids.diagonal() + n * n])
    return DiagBoundSdp(data, var, conj, np.array([2 * n]), objective)


def schur_cb_norm(a) -> NormCertificate:
    """Completely bounded norm of the Schur (entrywise) multiplier by a.

    The optimum of ``schur_problem(a)``.  The witness carries the diagonal
    blocks, a factorization a_ij = sum_m left[i, m] conj(right[j, m]) with
    row norms <= sqrt(t), and the solver's certified lower bound.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        i, j = map(int, bad[0])
        raise ValueError(f"entry ({i}, {j}) is not finite: {a[i, j]}")
    n = a.shape[0]
    if n == 0:
        empty = {key: np.zeros((0, 0), dtype=complex)
                 for key in ("p_block", "q_block", "left", "right")}
        return NormCertificate(0.0, "optimal",
                               {**empty, "lower": 0.0, "iterations": 0, "status": "seeded"})
    problem = schur_problem(a)
    seed = np.zeros(problem.n_vars, dtype=complex)
    seed[problem.objective] = float(np.linalg.norm(a, 2))
    solution = solve_diag_bound_sdp(problem, lower=float(np.abs(a).max()), seeds=(seed,))
    big = problem.blocks_for(solution.variables)[0]
    pm, qm = big[:n, :n], big[n:, n:]
    left, right = _factorize_completion(pm, a, qm)
    witness = {"p_block": pm, "q_block": qm, "left": left, "right": right, **_telemetry(solution)}
    return NormCertificate(solution.value, "optimal", witness)


def _factorize_completion(pm, a, qm) -> tuple[np.ndarray, np.ndarray]:
    """Row-vector factorization a_ij = <x_i, y_j> from a PSD completion,
    compressed to inner dimension <= n and padded back to n columns."""
    n = a.shape[0]
    big = np.block([[pm, a], [a.conj().T, qm]])
    vals, vecs = np.linalg.eigh((big + big.conj().T) / 2)
    keep = vals > 1e-12 * float(vals.max(initial=0.0))
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
    arrow_of[g.range_of, g.source_of] = np.arange(g.n_arrows)
    # n * n arrows fill every pair exactly when no two share one
    return arrow_of if arrow_of.min(initial=0) >= 0 else None


def _unit_weights_only(g: FiniteGroupoid) -> bool:
    return bool(np.abs(g.weights - 1.0).max(initial=0.0) <= 1e-12)


def _term_cost(g: FiniteGroupoid, terms) -> float:
    return float(sum(section_norm(g, f) * section_norm(g, h) for f, h in terms))


def _terms_reconstruct(g: FiniteGroupoid, terms, phi, tol: float = 1e-8) -> bool:
    total = np.zeros(g.n_arrows, dtype=complex)
    for f, h in terms:
        total += regular_coefficient(g, f, h)
    return bool(np.abs(total - phi).max(initial=0.0) <= tol * np.abs(phi).max(initial=0.0))


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
    rho, tau = stieltjes.witness["rho"], stieltjes.witness["tau"]
    left, right = _factorize_completion(rho[arrow_of], phi[arrow_of], tau[arrow_of])
    f = np.zeros(g.n_arrows, dtype=complex)
    h = np.zeros(g.n_arrows, dtype=complex)
    h[arrow_of] = left
    f[arrow_of] = right
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


def fourier_norm_bounds(g: FiniteGroupoid, phi) -> tuple[NormCertificate, NormCertificate]:
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
    stieltjes, solution = _solve_stieltjes(g, phi)
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
