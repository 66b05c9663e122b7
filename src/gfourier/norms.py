"""Factorization norms: the coefficient norm SDP, Schur multiplier cb-norms,
and two-sided bounds for the decomposition norm.

The coefficient norm of phi is computed from its block completion problem:
one Hermitian block per orbit of units, read at the range fiber of the
orbit's smallest unit, holding phi and its involution off-diagonal and two
free conjugation-symmetric functions on the diagonal, with the largest unit
value minimized subject to every block being PSD.  The blocks of the other
units of an orbit are permuted copies and are left out.  On pair groupoids
(one orbit) the problem is, entry for entry, the classical Schur multiplier
SDP, and ``schur_cb_norm`` is this solve.

One stacked SVD per fiber class completes every block by its balanced polar
parts (``_group_orbits``), a seed the solver re-verifies.  It is optimal, and
no Newton step runs, on groups and group bundles (Eymard's norm, with a dual
block and one decomposition term from the same SVD), on positive definite
phi and on rank-one blocks; elsewhere the interior-point method starts from
the larger of the sup norm and the closed form on one-unit orbits.  The
closed-form values and decomposition costs carry a rounding of a few ulps
per fiber element, so the lower bound is rounded down, and the upper bound
up, by 8 eps times the largest fiber size, or as many ulps where that is more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import arrow_function
from .groupoid import FiniteGroupoid, pair_groupoid, product_with_pair_groupoid
from .numerics import orthonormal_span
from .positivity import _stacks, off_diagonal_embed, pd_to_section
from .sdp import DiagBoundSdp, SdpSolution, _herm, solve_diag_bound_sdp

# the rounding margin of closed-form values and decomposition costs, in eps
# (or ulps, below the normal range) per fiber element
_ROUNDING = 8


@dataclass(frozen=True)
class NormCertificate:
    """A norm value together with the object that certifies it.

    kind 'optimal' carries a feasible completion (rho, tau) or (p, q) and the
    solver's certified lower bound, Newton steps, status and number of SDP
    blocks; 'upper' carries a
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


def _orbit_firsts(g: FiniteGroupoid) -> np.ndarray:
    """Whether each unit is the smallest of its orbit."""
    # every unit of an orbit has an arrow into v, so the smallest source of
    # the arrows into v is the smallest unit of its orbit
    first = np.full(g.n_units, g.n_units)
    np.minimum.at(first, g.range_of, g.source_of)
    return first == np.arange(g.n_units)


def stieltjes_problem(g: FiniteGroupoid, phi) -> DiagBoundSdp:
    """The block completion problem whose optimum is the coefficient norm bound.

    One block per orbit, at the orbit's smallest unit u, in ascending order of
    u: [[rho, phi], [phi*, tau]] read at the Gram block of arrow ids of the
    range fiber of u.  Conjugation symmetry holds by construction: the arrows
    z and inverse(z) share a variable, conjugated at the larger id, and a
    self-inverse arrow holds its variable unconjugated at both orientations,
    which pins it to the real axis.

    The other units' blocks are left out because the groupoid axioms make
    them copies: for an arrow gamma from u to v, the range fiber of v is
    gamma times that of u and inverse(gamma x) gamma y = inverse(x) y, so the
    block of v is the block of u with rows and columns permuted alike.  The
    same axioms put every arrow of the orbit, unit arrows included, in the
    block of u.  Dropping blocks can only lower the optimum, so a dual bound
    of this problem bounds the all-units problem too; that its optimum equals
    the all-units one rests on g being a groupoid.
    """
    phi = arrow_function(g, phi)
    ids, flip = _arrow_variables(g)
    kept = _orbit_firsts(g)
    classes = [(c, kept[c.units]) for c in g.fiber_classes if kept[c.units].any()]
    s = 2 * max(c.gram.shape[1] for c, _ in classes)
    block_of = np.cumsum(kept) - 1
    data = np.zeros((kept.sum(), s, s), dtype=complex)
    var = np.full(data.shape, -1)
    conj = np.zeros(data.shape, dtype=bool)
    sizes = np.zeros(data.shape[0], dtype=int)
    for c, rows in classes:
        m = c.gram.shape[1]
        b, gram = block_of[c.units[rows]], c.gram[rows]
        top, bottom = slice(0, m), slice(m, 2 * m)
        data[b, top, bottom] = phi[gram]
        data[b, bottom, top] = phi[gram].conj().swapaxes(1, 2)
        var[b, top, top] = ids[gram]
        var[b, bottom, bottom] = ids[gram] + g.n_arrows
        conj[b, top, top] = conj[b, bottom, bottom] = flip[gram]
        sizes[b] = 2 * m
    objective = np.concatenate([g.unit_arrows, g.unit_arrows + g.n_arrows])
    return DiagBoundSdp(data, var, conj, sizes, objective)


class _GroupOrbits(NamedTuple):
    """The polar completion of every orbit block by variable id (``seed``),
    and the closed form on the orbits that are one unit: ``value``, the
    largest ||Phi_u||_tr / m over their units (-inf without one); whether
    every orbit is one unit (``complete``); the dual stack at the block of
    the largest value (``dual``, None without such a unit); the single
    decomposition term (f, h) as a (1, 2, n_arrows) stack (``term``), a
    decomposition of phi when ``complete``; and the largest of their fibers
    (``fiber``, 0 without one)."""

    value: float
    complete: bool
    seed: np.ndarray
    dual: np.ndarray | None
    term: np.ndarray
    fiber: int


def _group_orbits(g: FiniteGroupoid, phi, problem: DiagBoundSdp) -> _GroupOrbits:
    """Complete every orbit block by the polar parts of its Gram block, and
    solve the completion problem in closed form on one-unit orbits.

    At an orbit's first unit, with Phi = phi[gram] = U S V^H, the block with
    rho = c U S U^H and tau = V S V^H / c is congruent to [U; V] S [U; V]^H,
    so PSD.  The ties of ``stieltjes_problem`` are the permutations p -> k p
    of the fiber by the isotropy arrows k; they commute with Phi, hence with
    its polar parts, so every variable gets one value.  One scalar per
    orbit, c^2 = max diag V S V^H / max diag U S U^H (1 when Phi = 0), puts
    the block's value at sqrt(max diag U S U^H max diag V S V^H), at most
    ||Phi||_2.  That is the optimum on positive definite phi (U S U^H =
    V S V^H = Phi: the largest unit value), on rank-one Phi = x y^H
    (|x|_inf |y|_inf, the sup norm) and on one-unit orbits.

    There the fiber of u is the isotropy group and Phi_u a group matrix, as
    are its polar parts, with diagonal tr S / m, so c = 1.  The dual Z =
    [[I, -W], [-W^H, I]] / (2m) with W = U V^H is PSD, is zero at every free
    variable, sums to 1 on the objective diagonal, and has -<F0, Z> =
    tr S / m: the optimum is ||Phi_u||_tr / m, Eymard's norm sum_pi d_pi
    ||phi^(pi)||_1 / |G|.  A = U S^1/2 V^H and B = V S^1/2 V^H are group
    matrices with A B = Phi_u, so phi = a * b, and h = a, f(z) =
    conj(b(inverse(z))), both divided by sqrt(w_u), is one term whose
    sections have norm^2 tr S / m on fiber u.  The values carry the SVD's
    rounding of a few ulps per fiber element.
    """
    ids, flip = _arrow_variables(g)
    kept = _orbit_firsts(g)
    seed = np.zeros(2 * g.n_arrows, dtype=complex)
    term = np.zeros((1, 2, g.n_arrows), dtype=complex)
    top, size, complete = None, 0, True
    for c in g.fiber_classes:
        rows = kept[c.units]
        units, arrows, gram = c.units[rows], c.arrows[rows], c.gram[rows]
        m = gram.shape[1]
        u, s, vh = np.linalg.svd(phi[gram])
        rho, tau = (u * s[:, None, :]) @ _herm(u), (_herm(vh) * s[:, None, :]) @ vh
        high_rho, high_tau = (x.diagonal(axis1=1, axis2=2).real.max(1) for x in (rho, tau))
        balance = np.sqrt(np.divide(high_tau, high_rho, out=np.ones(units.size),
                                    where=np.minimum(high_rho, high_tau) > 0))[:, None, None]
        seed[ids[gram]] = np.where(flip[gram], rho.conj(), rho) * balance
        seed[ids[gram] + g.n_arrows] = np.where(flip[gram], tau.conj(), tau) / balance
        alone = (g.source_of[arrows] == units[:, None]).all(1)
        complete &= bool(alone.all())
        if not alone.any():
            continue
        units, arrows, u, s, vh = units[alone], arrows[alone], u[alone], s[alone], vh[alone]
        size = max(size, m)
        values = s.sum(1) / m
        # the unit rows of A and B, scaled by 1 / sqrt(w_u)
        k = np.arange(units.size)
        at = (arrows == g.unit_arrows[units][:, None]).argmax(1)
        root = np.sqrt(s) / np.sqrt(g.weights[g.unit_arrows[units]])[:, None]
        term[0, 1, arrows] = ((u[k, at] * root)[:, None, :] @ vh)[:, 0]
        term[0, 0, arrows] = ((vh[k, :, at].conj() * root)[:, None, :] @ vh)[:, 0]
        i = int(values.argmax())
        if top is None or values[i] > top[0]:
            top = float(values[i]), units[i], m, u[i] @ vh[i]
    if top is None:
        return _GroupOrbits(-np.inf, False, seed, None, term, 0)
    value, unit, m, w = top
    dual = np.zeros(problem.data.shape, dtype=complex)
    z = dual[np.count_nonzero(kept[:unit]), :2 * m, :2 * m]
    z[:m, m:], z[m:, :m] = -w, -_herm(w)
    z.flat[::2 * m + 1] = 1.0
    z /= 2 * m
    return _GroupOrbits(value, complete, seed, dual, term, size)


def _rounded(value: float, fiber: int, direction: int) -> float:
    """``value`` moved up (``direction`` 1) or down (-1) by ``_ROUNDING`` eps
    per element of ``fiber``, or by as many ulps where that is more (below
    the normal range); zero, which is computed exactly, stays."""
    if not value or not fiber:
        return value
    ulps = _ROUNDING * fiber
    moved = value * (1 + direction * ulps * np.finfo(float).eps), value + direction * ulps * np.spacing(value)
    return float(max(moved) if direction > 0 else min(moved))


def _witness_functions(g: FiniteGroupoid, solution: SdpSolution) -> tuple[np.ndarray, np.ndarray]:
    ids, flip = _arrow_variables(g)
    rho, tau = solution.variables[ids], solution.variables[ids + g.n_arrows]
    return np.where(flip, rho.conj(), rho), np.where(flip, tau.conj(), tau)


def _solve_stieltjes(g: FiniteGroupoid, phi) -> tuple[NormCertificate, SdpSolution, _GroupOrbits]:
    """The SDP from the polar completion and the larger of the sup norm and
    the rounded closed form; an optimal seed verifies with no Newton step."""
    phi = arrow_function(g, phi)
    problem = stieltjes_problem(g, phi)
    orbits = _group_orbits(g, phi, problem)
    sup = float(np.abs(phi).max(initial=0.0))
    lower = max(sup, _rounded(orbits.value, orbits.fiber, -1))
    # the closed-form dual certifies its unrounded value, hence lower, unless sup is larger
    dual = orbits.dual if orbits.value >= sup else None
    solution = solve_diag_bound_sdp(problem, lower=lower, seeds=(orbits.seed,), dual=dual)
    rho, tau = _witness_functions(g, solution)
    witness = {"rho": rho, "tau": tau, "lower": solution.lower, "iterations": solution.iterations,
               "status": solution.status, "blocks": int(problem.sizes.size)}
    return NormCertificate(solution.value, "optimal", witness), solution, orbits


def fourier_stieltjes_norm(g: FiniteGroupoid, phi) -> NormCertificate:
    """Coefficient norm bound of phi via the block completion SDP.

    Always >= the sup norm; equal to the Schur multiplier cb-norm on pair
    groupoids.  With no Newton step it is the largest unit value when phi is
    positive definite, the sup norm when every orbit's Gram block has rank
    one, and Eymard's norm, max over units of ||Phi_u||_tr / m, on groups
    and group bundles.  The witness is a feasible (rho, tau) completion,
    with the certified lower bound on the optimum under "lower".
    """
    return _solve_stieltjes(g, phi)[0]


# ---------------------------------------------------------------------------
# Schur multipliers


def schur_cb_norm(a) -> NormCertificate:
    """Completely bounded norm of the Schur (entrywise) multiplier by a.

    The coefficient norm of a.ravel() on the pair groupoid of n points, whose
    arrow (i, j) has id i n + j, by the solve of ``fourier_stieltjes_norm``.
    The witness carries the completion's diagonal blocks P = rho.reshape(n, n)
    and Q = tau.reshape(n, n), a factorization a_ij = sum_m left[i, m]
    conj(right[j, m]) with row norms <= sqrt(t), and the solver's certified
    lower bound, Newton steps, status and number of SDP blocks.
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
                               {**empty, "lower": 0.0, "iterations": 0, "status": "seeded",
                                "blocks": 0})
    cert = _solve_stieltjes(pair_groupoid(n), a.ravel())[0]
    telemetry = dict(cert.witness)
    pm, qm = telemetry.pop("rho").reshape(n, n), telemetry.pop("tau").reshape(n, n)
    left, right = _factorize_completion(pm, a, qm)
    witness = {"p_block": pm, "q_block": qm, "left": left, "right": right, **telemetry}
    return NormCertificate(cert.value, "optimal", witness)


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


def _term_cost(g: FiniteGroupoid, terms: np.ndarray) -> float:
    """sum over k of ||f_k|| ||h_k|| for a (k, 2, n_arrows) stack of terms (f_k, h_k);
    each section is divided by a power of two near its largest modulus before
    it is squared, so subnormal entries do not square to zero."""
    by_range = np.argsort(g.range_of, kind="stable")
    fiber_starts = np.searchsorted(g.range_of[by_range], np.arange(g.n_units))
    cost = 0.0
    for part in _stacks(np.arange(len(terms)), 2 * g.n_arrows):
        size = np.abs(terms[part][:, :, by_range])
        _, exponent = np.frexp(size.max(axis=2, initial=0.0))
        mass = g.weights[by_range] * np.ldexp(size, -exponent[:, :, None]) ** 2
        norms = np.ldexp(np.sqrt(np.add.reduceat(mass, fiber_starts, axis=2).max(axis=2)), exponent)
        cost += float(np.sum(norms[:, 0] * norms[:, 1]))
    return cost


def _terms_reconstruct(g: FiniteGroupoid, terms: np.ndarray, phi, tol: float = 1e-8) -> bool:
    """Whether sum over k of regular_coefficient(f_k, h_k) is phi to tol relative.

    The coefficient at x sums w(t) conj(f(inverse(y))) h(t) over the
    composable pairs x = t y; the terms are summed first, a stack of them at a
    time."""
    _, t, y, starts = g.composable_pairs
    back = g.inverse_of[y]
    paired = np.zeros(t.size, dtype=complex)
    for part in _stacks(np.arange(len(terms)), t.size):
        paired += np.sum(terms[part, 0][:, back].conj() * terms[part, 1][:, t], axis=0)
    total = np.add.reduceat(g.weights[t] * paired, starts)
    return bool(np.abs(total - phi).max(initial=0.0) <= tol * np.abs(phi).max(initial=0.0))


def _delta_terms(g: FiniteGroupoid, phi) -> np.ndarray:
    """Per-arrow point-mass decomposition; always succeeds, rarely tight.

    Term k pairs the normalized unit point mass at the source of the k-th
    arrow x in the support of phi with phi(x) at x."""
    xs = np.flatnonzero(phi)
    units = g.unit_arrows[g.source_of[xs]]
    terms = np.zeros((xs.size, 2, g.n_arrows), dtype=complex)
    terms[np.arange(xs.size), 0, units] = 1.0 / g.weights[units]
    terms[np.arange(xs.size), 1, xs] = phi[xs]
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


def _candidates(g: FiniteGroupoid, phi, stieltjes: NormCertificate, orbits: _GroupOrbits):
    """Candidate decompositions, each a (k, 2, n_arrows) stack of terms
    (f_k, h_k), built lazily, cheapest first: the closed form's single term
    when every orbit is one unit, a positive-definite square-root
    coefficient, a single-coefficient pair factorization or the doubled
    two-term split, and the point-mass fallback."""
    if orbits.complete:
        yield orbits.term
    if _unit_weights_only(g):
        try:
            xi = pd_to_section(g, phi)
        except ValueError:
            pass
        else:
            yield np.array([(xi, xi)])
        arrow_of = _pair_structure(g)
        if arrow_of is not None:
            yield np.array(_pair_terms(g, arrow_of, stieltjes, phi))
        else:
            try:
                doubled = _doubled_terms(g, stieltjes, phi)
            except ValueError:
                pass
            else:
                yield np.array(doubled)
    yield _delta_terms(g, phi)


def fourier_norm_bounds(g: FiniteGroupoid, phi) -> tuple[NormCertificate, NormCertificate]:
    """Two-sided bounds for the decomposition norm inf sum ||f_k|| ||g_k||.

    Lower: the larger of the sup norm and the certified dual bound of the
    coefficient norm SDP; its witness holds the dual blocks Z, one per orbit
    in the padded layout of ``stieltjes_problem(g, phi)``, PSD and dual
    feasible there, so that -<F0, Z> re-verifies the bound (None when the
    solver's seeded exit made the sup norm the bound).  On groups and group
    bundles Z is the closed form's, at the unit of the largest value.
    Upper: the cheapest verified decomposition among ``_candidates``, which
    are tried in turn until one costs at most the lower bound times
    1 + 1e-7.  The closed-form lower bound is rounded down by the closed
    form's rounding margin, and the upper bound up by 8 eps times the
    largest fiber size (or as many ulps, below the normal range).
    """
    phi = arrow_function(g, phi)
    stieltjes, solution, orbits = _solve_stieltjes(g, phi)
    sup = float(np.abs(phi).max(initial=0.0))
    sup_arrow = int(np.abs(phi).argmax()) if g.n_arrows else 0
    lower = NormCertificate(
        max(sup, solution.lower),
        "lower",
        {"sup_arrow": sup_arrow, "stieltjes": stieltjes, "dual": solution.dual},
    )
    best_terms = None
    best_cost = np.inf
    for terms in _candidates(g, phi, stieltjes, orbits):
        if not _terms_reconstruct(g, terms, phi):
            continue
        cost = _term_cost(g, terms)
        if cost < best_cost:
            best_cost, best_terms = cost, terms
        if cost <= lower.value * (1 + 1e-7):
            break
    if best_terms is None:
        raise RuntimeError("no decomposition reconstructed the input; this should not happen")
    # a term cost rounds like the closed form, by a few ulps per fiber element
    fiber = int(np.bincount(g.range_of).max(initial=0))
    upper = NormCertificate(_rounded(best_cost, fiber, 1), "upper",
                            {"terms": tuple(map(tuple, best_terms))})
    return lower, upper
