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
A phi below the normal range is solved lifted into it by a power of two, and
its values are scaled back and rounded outwards by the same margin.

Everything of the problem that does not depend on phi (the variable layout
of the blocks, checked once, the positions phi fills, the kept rows of each
fiber class and the range-fiber index of the term costs) is built once per
groupoid, as ``FiniteGroupoid.coefficient_layout``, and shared read-only by
every solve; a solve only gathers phi into it.  ``schur_cb_norm`` keeps the
pair groupoids of the last few sizes it solved on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import arrow_function
from .groupoid import FiniteGroupoid, pair_groupoid, product_with_pair_groupoid
from .numerics import orthonormal_span
from .positivity import _stacks, off_diagonal_embed, pd_to_section
from .sdp import BlockLayout, DiagBoundSdp, SdpSolution, _herm, _read_only, solve_diag_bound_sdp

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


class _KeptClass(NamedTuple):
    """The orbit bases (``FiniteGroupoid.orbit_index``) in one fiber class,
    whose range fibers have m arrows: their Gram blocks ``gram``, the
    variable ids and conjugation flags there, and their ``blocks`` in the
    declaration; then the one-unit orbits among them (``alone``), whose
    fiber is the isotropy group, with their fibers (``arrows``), the place
    of each unit arrow in its fiber (``at``) and the square root of its
    weight (``root_weight``)."""

    m: int
    gram: np.ndarray
    ids: np.ndarray
    flip: np.ndarray
    blocks: np.ndarray
    alone: np.ndarray
    arrows: np.ndarray
    at: np.ndarray
    root_weight: np.ndarray


class CoefficientLayout:
    """Everything of the coefficient-norm problem on g that does not depend
    on phi, built once per groupoid (``FiniteGroupoid.coefficient_layout``).

    It holds the variable ids and conjugation flags of the arrows, the kept
    rows of every fiber class (``_KeptClass``), whether every orbit is one
    unit (``complete``), the checked ``BlockLayout`` of ``stieltjes_problem``
    with the data positions that phi fills, the range fibers as
    ``_term_cost`` reads them, and the rounding margins: the largest fiber
    of a one-unit orbit (``group_fiber``, 0 without one) and of any unit
    (``fiber``).  Its arrays are read-only: a layout is shared by every
    solve on g, and a groupoid made from g by ``with_unit_weights`` or
    ``dataclasses.replace`` builds its own.
    """

    def __init__(self, g: FiniteGroupoid):
        ids, flip = _arrow_variables(g)
        kept = np.zeros(g.n_units, dtype=bool)
        for c, o in zip(g.fiber_classes, g.orbit_index):
            kept[c.units[o.bases]] = True
        block_of = np.cumsum(kept) - 1
        classes = []
        for c, o in zip(g.fiber_classes, g.orbit_index):
            units, arrows, gram = c.units[o.bases], c.arrows[o.bases], c.gram[o.bases]
            # the orbits whose fiber is the isotropy group; a base's unit arrow
            # is at its home place
            alone = (g.source_of[arrows] == units[:, None]).all(1)
            units, arrows, at = units[alone], arrows[alone], o.home[o.bases][alone]
            root = np.sqrt(g.weights[g.unit_arrows[units]])
            classes.append(_KeptClass(gram.shape[1], *map(_read_only, (
                gram, ids[gram], flip[gram], block_of[c.units[o.bases]], alone, arrows, at, root))))
        self.ids, self.flip = _read_only(ids), _read_only(flip)
        self.classes = tuple(classes)
        self.complete = all(c.alone.all() for c in classes)
        self.group_fiber = max((c.m for c in classes if c.alone.any()), default=0)
        s = 2 * max(c.m for c in classes)
        var = np.full((kept.sum(), s, s), -1)
        conj = np.zeros(var.shape, dtype=bool)
        sizes = np.zeros(var.shape[0], dtype=int)
        upper, lower, sources = [], [], []
        for c in classes:
            m, b = c.m, c.blocks
            top, bottom = slice(0, m), slice(m, 2 * m)
            var[b, top, top] = c.ids
            var[b, bottom, bottom] = c.ids + g.n_arrows
            conj[b, top, top] = conj[b, bottom, bottom] = c.flip
            sizes[b] = 2 * m
            # phi[gram] at the top right of block b, its conjugate transpose at the bottom left
            corner, p, q = b[:, None, None] * s * s, np.arange(m)[:, None], np.arange(m)
            upper.append((corner + p * s + q + m).ravel())
            lower.append((corner + (q + m) * s + p).ravel())
            sources.append(c.gram.ravel())
        objective = np.concatenate([g.unit_arrows, g.unit_arrows + g.n_arrows])
        self.sdp = BlockLayout(var, conj, sizes, objective)
        self.upper, self.lower, self.sources = (_read_only(np.concatenate(x))
                                                for x in (upper, lower, sources))
        by_range = np.argsort(g.range_of, kind="stable")
        self.by_range = _read_only(by_range)
        self.fiber_starts = _read_only(np.searchsorted(g.range_of[by_range], np.arange(g.n_units)))
        self.range_weights = _read_only(g.weights[by_range])
        self.fiber = int(np.bincount(g.range_of).max(initial=0))

    def declare(self, phi: np.ndarray) -> DiagBoundSdp:
        """The problem of phi: its Gram blocks gathered into the layout."""
        data = np.zeros(self.sdp.var.shape, dtype=complex)
        values = phi[self.sources]
        data.flat[self.upper] = values
        data.flat[self.lower] = values.conj()
        return DiagBoundSdp(data, self.sdp)


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

    The layout is g's cached ``coefficient_layout``; only phi is gathered.
    Its orbits are those of ``FiniteGroupoid.orbit_index``, which makes every
    unit its own base when the weights are not left invariant.
    """
    return g.coefficient_layout.declare(arrow_function(g, phi))


class _GroupOrbits(NamedTuple):
    """The polar completion of every orbit block by variable id (``seed``),
    and the closed form on the orbits that are one unit: ``value``, the
    largest ||Phi_u||_tr / m over their units (-inf without one); the dual
    stack at the block of the largest value (``dual``, None without such a
    unit); and the single decomposition term (f, h) as a (1, 2, n_arrows)
    stack (``term``), a decomposition of phi when every orbit is one unit
    (``CoefficientLayout.complete``)."""

    value: float
    seed: np.ndarray
    dual: np.ndarray | None
    term: np.ndarray


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
    seed = np.zeros(2 * g.n_arrows, dtype=complex)
    term = np.zeros((1, 2, g.n_arrows), dtype=complex)
    top = None
    for c in g.coefficient_layout.classes:
        u, s, vh = np.linalg.svd(phi[c.gram])
        rho, tau = (u * s[:, None, :]) @ _herm(u), (_herm(vh) * s[:, None, :]) @ vh
        high_rho, high_tau = (x.diagonal(axis1=1, axis2=2).real.max(1) for x in (rho, tau))
        balance = np.sqrt(np.divide(high_tau, high_rho, out=np.ones(c.blocks.size),
                                    where=np.minimum(high_rho, high_tau) > 0))[:, None, None]
        seed[c.ids] = np.where(c.flip, rho.conj(), rho) * balance
        seed[c.ids + g.n_arrows] = np.where(c.flip, tau.conj(), tau) / balance
        if not c.alone.any():
            continue
        u, s, vh = u[c.alone], s[c.alone], vh[c.alone]
        values = s.sum(1) / c.m
        # the unit rows of A and B, scaled by 1 / sqrt(w_u)
        k = np.arange(c.at.size)
        root = np.sqrt(s) / c.root_weight[:, None]
        term[0, 1, c.arrows] = ((u[k, c.at] * root)[:, None, :] @ vh)[:, 0]
        term[0, 0, c.arrows] = ((vh[k, :, c.at].conj() * root)[:, None, :] @ vh)[:, 0]
        i = int(values.argmax())
        if top is None or values[i] > top[0]:
            top = float(values[i]), c.blocks[c.alone][i], c.m, u[i] @ vh[i]
    if top is None:
        return _GroupOrbits(-np.inf, seed, None, term)
    value, block, m, w = top
    dual = np.zeros(problem.data.shape, dtype=complex)
    z = dual[block, :2 * m, :2 * m]
    z[:m, m:], z[m:, :m] = -w, -_herm(w)
    z.flat[::2 * m + 1] = 1.0
    z /= 2 * m
    return _GroupOrbits(value, seed, dual, term)


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
    ids, flip = g.coefficient_layout.ids, g.coefficient_layout.flip
    rho, tau = solution.variables[ids], solution.variables[ids + g.n_arrows]
    return np.where(flip, rho.conj(), rho), np.where(flip, tau.conj(), tau)


def _solve_stieltjes(g: FiniteGroupoid, phi: np.ndarray) -> tuple[NormCertificate, SdpSolution, _GroupOrbits]:
    """The SDP of the arrow function phi from the polar completion and the
    larger of the sup norm and the rounded closed form; an optimal seed
    verifies with no Newton step."""
    problem = g.coefficient_layout.declare(phi)
    orbits = _group_orbits(g, phi, problem)
    sup = float(np.abs(phi).max(initial=0.0))
    lower = max(sup, _rounded(orbits.value, g.coefficient_layout.group_fiber, -1))
    # the closed-form dual certifies its unrounded value, hence lower, unless sup is larger
    dual = orbits.dual if orbits.value >= sup else None
    solution = solve_diag_bound_sdp(problem, lower=lower, seeds=(orbits.seed,), dual=dual)
    rho, tau = _witness_functions(g, solution)
    witness = {"rho": rho, "tau": tau, "lower": solution.lower, "iterations": solution.iterations,
               "status": solution.status, "blocks": int(problem.sizes.size)}
    return NormCertificate(solution.value, "optimal", witness), solution, orbits


def _lift(phi: np.ndarray) -> int:
    """The power of two that lifts phi into the normal range when its largest
    modulus lies below it, else 0."""
    top = float(np.abs(phi).max(initial=0.0))
    return -int(np.frexp(top)[1]) if 0.0 < top < np.finfo(float).tiny else 0


def _ldexp(x: np.ndarray, k: int) -> np.ndarray:
    """x times 2**k, real and imaginary parts apart (a complex product by 2**k
    overflows where 2**k does)."""
    return np.ldexp(np.ascontiguousarray(x, dtype=complex).view(float), k).view(complex)


def _lowered(g: FiniteGroupoid, cert: NormCertificate, lift: int, sup: float) -> NormCertificate:
    """The coefficient-norm certificate of phi from that of phi lifted by
    2**lift: the completion scaled back, the value rounded up and the lower
    bound down, by the rounding margin, because scaling back into the
    subnormal range rounds; sup, the sup norm of phi, stays a lower bound."""
    fiber, w = g.coefficient_layout.fiber, cert.witness
    witness = {**w, "rho": _ldexp(w["rho"], -lift), "tau": _ldexp(w["tau"], -lift),
               "lower": max(sup, _rounded(np.ldexp(w["lower"], -lift), fiber, -1))}
    return NormCertificate(_rounded(np.ldexp(cert.value, -lift), fiber, 1), cert.kind, witness)


def _stieltjes_certificate(g: FiniteGroupoid, phi) -> NormCertificate:
    """The certificate of ``_solve_stieltjes``; phi below the normal range is
    solved lifted into it by a power of two, where the closed form and the
    seeded exit keep their relative margins, and scaled back."""
    phi = arrow_function(g, phi)
    lift = _lift(phi)
    if not lift:
        return _solve_stieltjes(g, phi)[0]
    return _lowered(g, _solve_stieltjes(g, _ldexp(phi, lift))[0], lift, float(np.abs(phi).max()))


def fourier_stieltjes_norm(g: FiniteGroupoid, phi) -> NormCertificate:
    """Coefficient norm bound of phi via the block completion SDP.

    Always >= the sup norm; equal to the Schur multiplier cb-norm on pair
    groupoids.  With no Newton step it is the largest unit value when phi is
    positive definite, the sup norm when every orbit's Gram block has rank
    one, and Eymard's norm, max over units of ||Phi_u||_tr / m, on groups
    and group bundles.  The witness is a feasible (rho, tau) completion,
    with the certified lower bound on the optimum under "lower".
    """
    return _stieltjes_certificate(g, phi)


# ---------------------------------------------------------------------------
# Schur multipliers


@lru_cache(maxsize=8)
def _pair_groupoid(n: int) -> FiniteGroupoid:
    """``pair_groupoid(n)`` with its cached indexes and coefficient-norm
    layout, kept for the 8 sizes ``schur_cb_norm`` used last."""
    return pair_groupoid(n)


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
    cert = _stieltjes_certificate(_pair_groupoid(n), a.ravel())
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
    layout = g.coefficient_layout
    cost = 0.0
    for part in _stacks(np.arange(len(terms)), 2 * g.n_arrows):
        size = np.abs(terms[part][:, :, layout.by_range])
        _, exponent = np.frexp(size.max(axis=2, initial=0.0))
        mass = layout.range_weights * np.ldexp(size, -exponent[:, :, None]) ** 2
        norms = np.ldexp(np.sqrt(np.add.reduceat(mass, layout.fiber_starts, axis=2).max(axis=2)), exponent)
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
    if g.coefficient_layout.complete:
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
    lift = _lift(phi)
    if lift:
        return _lowered_bounds(g, phi, lift)
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
    upper = NormCertificate(_rounded(best_cost, g.coefficient_layout.fiber, 1), "upper",
                            {"terms": tuple(map(tuple, best_terms))})
    return lower, upper


def _lowered_bounds(g: FiniteGroupoid, phi: np.ndarray, lift: int) -> tuple[NormCertificate, NormCertificate]:
    """The bounds of phi below the normal range from those of phi lifted by
    2**lift, whose closed form, term reconstruction and costs keep their
    relative margins: the bounds scaled back and moved out by the rounding
    margin, each term's two sections scaled back by half the lift, which
    stays exact, and the dual blocks as they are, since they are scale-free."""
    lower, upper = fourier_norm_bounds(g, _ldexp(phi, lift))
    fiber, sup = g.coefficient_layout.fiber, float(np.abs(phi).max())
    half = lift // 2
    terms = tuple((_ldexp(f, -half), _ldexp(h, half - lift)) for f, h in upper.witness["terms"])
    witness = {**lower.witness, "stieltjes": _lowered(g, lower.witness["stieltjes"], lift, sup)}
    return (NormCertificate(max(sup, _rounded(np.ldexp(lower.value, -lift), fiber, -1)), "lower", witness),
            NormCertificate(_rounded(np.ldexp(upper.value, -lift), fiber, 1), "upper", {"terms": terms}))
