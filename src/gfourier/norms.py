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
block from the same SVD), on positive definite phi and on rank-one blocks;
elsewhere the interior-point method starts from the larger of the sup norm
and the closed form on one-unit orbits.  The upper bound of
``fourier_norm_bounds`` is the cheapest of three decompositions: the polar
term of the same SVD and the terms of the square root of the solver's
completion blocks (or of their row factorization when no orbit has
isotropy), both read from base matrices by ``OrbitClass.spread``, and
point masses.  The closed-form values and decomposition costs carry a
rounding of a few ulps per fiber element, so the lower bound is rounded
down, and the upper bound up, by 8 eps times the largest fiber size, or as
many ulps where that is more.  A phi below the normal range or above
2**1000 is solved brought into [1/2, 1) by a power of two, and its values
are scaled back and rounded outwards by the same margin, or raise
ValueError when they overflow.

Everything of the problem that does not depend on phi (the variable ids,
conjugation flags, sizes and objective of the blocks, the positions phi
fills, the kept rows of each fiber class and the range-fiber index of the
term costs) is built once per groupoid, as
``FiniteGroupoid.coefficient_layout``, and shared read-only by every solve;
a solve only gathers phi into it.  ``schur_cb_norm`` keeps the pair
groupoids of the last few sizes it solved on.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import arrow_function
from .groupoid import FiniteGroupoid, pair_groupoid
from .numerics import hermitian_sqrt, orthonormal_span
from .positivity import _stacks
from .sdp import DiagBoundSdp, SdpSolution, _herm, solve_diag_bound_sdp

# the rounding margin of closed-form values and decomposition costs, in eps
# (or ulps, below the normal range) per fiber element
_ROUNDING = 8


def _read_only(a) -> np.ndarray:
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class NormCertificate:
    """A norm value together with the object that certifies it.

    kind 'optimal' carries a feasible completion (rho, tau) or (p, q) and the
    solver's certified lower bound, Newton steps, status and number of SDP
    blocks; 'upper' carries a list of coefficient factorization terms;
    'lower' carries the arrow that attains the sup bound and the dual blocks
    that certify the SDP bound.
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
    variable ids and conjugation flags there, their ``blocks`` in the
    declaration, and which of them are one-unit orbits, whose fiber is the
    isotropy group (``alone``)."""

    m: int
    gram: np.ndarray
    ids: np.ndarray
    flip: np.ndarray
    blocks: np.ndarray
    alone: np.ndarray


class CoefficientLayout:
    """Everything of the coefficient-norm problem on g that does not depend
    on phi, built once per groupoid (``FiniteGroupoid.coefficient_layout``).

    It holds the variable ids and conjugation flags of the arrows, the kept
    rows of every fiber class (``_KeptClass``), whether every orbit has
    trivial isotropy, as many units as fiber arrows (``free``), the
    ``var``, ``conj``, ``sizes`` and ``objective`` of ``stieltjes_problem``
    with the data positions that phi fills, the range fibers as
    ``_term_cost`` reads them, and the rounding margins: the largest fiber
    of a one-unit orbit (``group_fiber``, 0 without one) and of any unit
    (``fiber``).  Every diagonal position of a block holds a unit arrow,
    an objective variable: Gram[p, p] = inverse(x_p) x_p.  Its arrays are
    read-only: a layout is shared by every solve on g, and a groupoid made
    from g by ``with_unit_weights`` or ``dataclasses.replace`` builds its own.
    """

    def __init__(self, g: FiniteGroupoid):
        ids, flip = _arrow_variables(g)
        kept = np.zeros(g.n_units, dtype=bool)
        for c, o in zip(g.fiber_classes, g.orbit_index):
            kept[c.units[o.bases]] = True
        block_of = np.cumsum(kept) - 1
        classes = []
        for c, o in zip(g.fiber_classes, g.orbit_index):
            units, gram = c.units[o.bases], c.gram[o.bases]
            # the orbits whose fiber is the isotropy group
            alone = (g.source_of[c.arrows[o.bases]] == units[:, None]).all(1)
            classes.append(_KeptClass(gram.shape[1], *map(_read_only, (
                gram, ids[gram], flip[gram], block_of[units], alone))))
        self.ids, self.flip = _read_only(ids), _read_only(flip)
        self.classes = tuple(classes)
        self.free = all((np.bincount(o.orbit) == c.m).all() for c, o in zip(classes, g.orbit_index))
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
        self.var, self.conj, self.sizes, self.objective = map(_read_only, (var, conj, sizes, objective))
        self.upper, self.lower, self.sources = (_read_only(np.concatenate(x))
                                                for x in (upper, lower, sources))
        by_range = np.argsort(g.range_of, kind="stable")
        self.by_range = _read_only(by_range)
        self.fiber_starts = _read_only(np.searchsorted(g.range_of[by_range], np.arange(g.n_units)))
        self.range_weights = _read_only(g.weights[by_range])
        self.fiber = int(np.bincount(g.range_of).max(initial=0))

    def declare(self, phi: np.ndarray) -> DiagBoundSdp:
        """The problem of phi: its Gram blocks gathered into the layout."""
        data = np.zeros(self.var.shape, dtype=complex)
        values = phi[self.sources]
        data.flat[self.upper] = values
        data.flat[self.lower] = values.conj()
        return DiagBoundSdp(data, self.var, self.conj, self.sizes, self.objective)


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
    the SVD factors (U, S, V^H) and balance c of each fiber class (``polar``),
    and the closed form on one-unit orbits: ``value``, the largest
    ||Phi_u||_tr / m (-inf without one), and the dual stack at its block."""

    value: float
    seed: np.ndarray
    dual: np.ndarray | None
    polar: tuple


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
    (|x|_inf |y|_inf, the sup norm) and on one-unit orbits.  The same
    factors give a decomposition term of this cost (``_polar_term``).

    On a one-unit orbit the fiber of u is the isotropy group and Phi_u a
    group matrix, as are its polar parts, with diagonal tr S / m, so c = 1.
    The dual Z = [[I, -W], [-W^H, I]] / (2m) with W = U V^H is PSD, is zero
    at every free variable, sums to 1 on the objective diagonal, and has
    -<F0, Z> = tr S / m: the optimum is ||Phi_u||_tr / m, Eymard's norm
    sum_pi d_pi ||phi^(pi)||_1 / |G|.  The values carry the SVD's rounding
    of a few ulps per fiber element.
    """
    seed = np.zeros(2 * g.n_arrows, dtype=complex)
    polar = []
    top = None
    for c in g.coefficient_layout.classes:
        u, s, vh = np.linalg.svd(phi[c.gram])
        rho, tau = (u * s[:, None, :]) @ _herm(u), (_herm(vh) * s[:, None, :]) @ vh
        high_rho, high_tau = (x.diagonal(axis1=1, axis2=2).real.max(1) for x in (rho, tau))
        balance = np.sqrt(np.divide(high_tau, high_rho, out=np.ones(c.blocks.size),
                                    where=np.minimum(high_rho, high_tau) > 0))[:, None, None]
        seed[c.ids] = np.where(c.flip, rho.conj(), rho) * balance
        seed[c.ids + g.n_arrows] = np.where(c.flip, tau.conj(), tau) / balance
        polar.append((u, s, vh, balance))
        if not c.alone.any():
            continue
        u, s, vh = u[c.alone], s[c.alone], vh[c.alone]
        values = s.sum(1) / c.m
        i = int(values.argmax())
        if top is None or values[i] > top[0]:
            top = float(values[i]), c.blocks[c.alone][i], c.m, u[i] @ vh[i]
    if top is None:
        return _GroupOrbits(-np.inf, seed, None, tuple(polar))
    value, block, m, w = top
    dual = np.zeros(problem.data.shape, dtype=complex)
    z = dual[block, :2 * m, :2 * m]
    z[:m, m:], z[m:, :m] = -w, -_herm(w)
    z.flat[::2 * m + 1] = 1.0
    z /= 2 * m
    return _GroupOrbits(value, seed, dual, tuple(polar))


def _rounded(value: float, fiber: int, direction: int) -> float:
    """``value`` moved up (``direction`` 1) or down (-1) by ``_ROUNDING`` eps
    per element of ``fiber``, or by as many ulps where that is more (below
    the normal range); zero, which is computed exactly, stays."""
    if not value or not fiber:
        return value
    ulps = _ROUNDING * fiber
    moved = value * (1 + direction * ulps * np.finfo(float).eps), value + direction * ulps * np.spacing(value)
    return float(max(moved) if direction > 0 else min(moved))


def _solve_stieltjes(g: FiniteGroupoid, phi: np.ndarray) -> tuple[NormCertificate, SdpSolution, _GroupOrbits]:
    """The SDP of the arrow function phi from the polar completion and the
    larger of the sup norm and the rounded closed form; an optimal seed
    verifies with no Newton step."""
    layout = g.coefficient_layout
    problem = layout.declare(phi)
    orbits = _group_orbits(g, phi, problem)
    sup = float(np.abs(phi).max(initial=0.0))
    lower = max(sup, _rounded(orbits.value, layout.group_fiber, -1))
    # the closed-form dual certifies its unrounded value, hence lower, unless sup is larger
    dual = orbits.dual if orbits.value >= sup else None
    solution = solve_diag_bound_sdp(problem, lower=lower, seeds=(orbits.seed,), dual=dual)
    rho, tau = (np.where(layout.flip, x.conj(), x)
                for x in (solution.variables[layout.ids], solution.variables[layout.ids + g.n_arrows]))
    witness = {"rho": rho, "tau": tau, "lower": solution.lower, "iterations": solution.iterations,
               "status": solution.status, "blocks": int(problem.sizes.size)}
    return NormCertificate(solution.value, "optimal", witness), solution, orbits


def _lift(phi: np.ndarray) -> int:
    """The power of two that brings the largest modulus of phi into [1/2, 1)
    when it lies below the normal range, or above 2**1000, where the sums
    inside the solve could overflow; else 0."""
    top = float(np.abs(phi).max(initial=0.0))
    return -int(np.frexp(top)[1]) if 0.0 < top < np.finfo(float).tiny or top > 2.0 ** 1000 else 0


def _scaled_back(value: float, lift: int, fiber: int, direction: int) -> float:
    """``_rounded`` of value times 2**-lift; ValueError when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        back = _rounded(np.ldexp(value, -lift), fiber, direction)
    if not np.isfinite(back):
        raise ValueError(f"the norm overflows: {value:.17g} x 2**{-lift} is above the largest float")
    return back


def _ldexp(x: np.ndarray, k: int) -> np.ndarray:
    """x times 2**k, real and imaginary parts apart (a complex product by 2**k
    overflows where 2**k does)."""
    return np.ldexp(np.ascontiguousarray(x, dtype=complex).view(float), k).view(complex)


def _lowered(g: FiniteGroupoid, cert: NormCertificate, lift: int, sup: float) -> NormCertificate:
    """The coefficient-norm certificate of phi from that of phi lifted by
    2**lift: the completion scaled back, the value rounded up and the lower
    bound down, by the rounding margin, because scaling back into the
    subnormal range rounds (ValueError on overflow); sup, the sup norm of
    phi, stays a lower bound."""
    fiber, w = g.coefficient_layout.fiber, cert.witness
    value = _scaled_back(cert.value, lift, fiber, 1)
    witness = {**w, "rho": _ldexp(w["rho"], -lift), "tau": _ldexp(w["tau"], -lift),
               "lower": max(sup, _scaled_back(w["lower"], lift, fiber, -1))}
    return NormCertificate(value, cert.kind, witness)


def _stieltjes_certificate(g: FiniteGroupoid, phi) -> NormCertificate:
    """The certificate of ``_solve_stieltjes``; phi below the normal range or
    above 2**1000 is solved brought into [1/2, 1) by a power of two, where
    the closed form and the seeded exit keep their margins, and scaled back."""
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
    # factored at the scale the solve ran at; each factor takes half the lift back
    lift = _lift(a)
    left, right = _factorize_completion(*(_ldexp(x, lift) for x in (pm, a, qm)))
    half = lift // 2
    witness = {"p_block": pm, "q_block": qm, "left": _ldexp(left, -half),
               "right": _ldexp(right, half - lift), **telemetry}
    return NormCertificate(cert.value, "optimal", witness)


def _factorize_completion(pm, a, qm) -> tuple[np.ndarray, np.ndarray]:
    """Row-vector factorization a_ij = sum_k left[i, k] conj(right[j, k]) from
    a PSD completion C = c^H c: the columns of c, read in an orthonormal basis
    of the span of its last n columns (at most n vectors), padded to n."""
    n = a.shape[0]
    big = np.block([[pm, a], [a.conj().T, qm]])
    vals, vecs = np.linalg.eigh((big + big.conj().T) / 2)
    keep = vals > 1e-12 * float(vals.max(initial=0.0))
    c = np.sqrt(vals[keep])[:, None] * vecs[:, keep].conj().T
    basis = orthonormal_span(c[:, n:].T)
    factors = np.zeros((2 * n, n), dtype=complex)
    factors[:, :len(basis)] = (basis @ c.conj()).T
    return factors[:n], factors[n:]


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


def _spread_terms(g: FiniteGroupoid, stacks) -> np.ndarray:
    """The (k, 2, n_arrows) terms (f_k, h_k) read by ``OrbitClass.spread``
    from the (k, 2, n_bases, m, m) base matrices (B_k, A_k) of each fiber
    class, divided by sqrt(w): h_k[gram] W^1/2 = A_k at a base with fiber
    weights W, so the Gram block of the sum of the coefficients is
    sum_k A_k B_k^H, and ||h_k|| is the largest row norm of A_k."""
    terms = np.zeros((len(stacks[0]), 2, g.n_arrows), dtype=complex)
    for c, o, stack in zip(g.fiber_classes, g.orbit_index, stacks):
        terms[:, :, c.arrows] = o.spread(np.asarray(stack))
    return terms / np.sqrt(g.weights)


def _polar_term(g: FiniteGroupoid, orbits: _GroupOrbits) -> np.ndarray:
    """The term A = sqrt(c) U S^1/2 V^H, B = V S^1/2 V^H / sqrt(c) of each
    Phi_b = U S V^H = A B^H and balance c of ``_group_orbits``: its cost is
    the polar seed's value, the optimum on one-unit orbits, positive
    definite phi and rank-one blocks."""
    stacks = []
    for u, s, vh, balance in orbits.polar:
        root, scale = np.sqrt(s)[:, None, :], np.sqrt(balance)
        stacks.append([[(_herm(vh) * root) @ vh / scale, (u * root) @ vh * scale]])
    return _spread_terms(g, stacks)


def _completion_terms(g: FiniteGroupoid, phi, stieltjes: NormCertificate) -> np.ndarray:
    """Terms from the PSD blocks C_b = [[rho_b, Phi_b], [Phi_b^H, tau_b]] of
    the SDP's completion: one from their row factorizations when no orbit has
    isotropy, else two from R = C_b^1/2, which commutes with the isotropy
    permutations: Phi_b = (R R^H)_01 = R00 R10^H + R01 R11^H.  ValueError
    when a C_b is not PSD to 1e-7."""
    layout = g.coefficient_layout
    rho, tau = stieltjes.witness["rho"], stieltjes.witness["tau"]
    stacks = []
    for c in layout.classes:
        p, a, q = rho[c.gram], phi[c.gram], tau[c.gram]
        if layout.free:
            left, right = zip(*map(_factorize_completion, p, a, q))
            stacks.append([[right, left]])
        else:
            r, m = hermitian_sqrt(np.block([[p, a], [_herm(a), q]]), 1e-7), c.m
            stacks.append([[r[:, m:, :m], r[:, :m, :m]], [r[:, m:, m:], r[:, :m, m:]]])
    return _spread_terms(g, stacks)


def _candidates(g: FiniteGroupoid, phi, stieltjes: NormCertificate, orbits: _GroupOrbits):
    """Candidate decompositions, each a (k, 2, n_arrows) stack of terms
    (f_k, h_k), built lazily: the polar term, the completion terms (skipped
    when the completion is not PSD to 1e-7) and the point masses."""
    yield _polar_term(g, orbits)
    with suppress(ValueError):
        yield _completion_terms(g, phi, stieltjes)
    yield _delta_terms(g, phi)


def fourier_norm_bounds(g: FiniteGroupoid, phi) -> tuple[NormCertificate, NormCertificate]:
    """Two-sided bounds for the decomposition norm inf sum ||f_k|| ||g_k||.

    Lower: the larger of the sup norm and the certified dual bound of the
    coefficient norm SDP; its witness holds the dual blocks Z, one per orbit
    in the padded layout of ``stieltjes_problem(g, phi)``, PSD and dual
    feasible there, so that -<F0, Z> re-verifies the bound (None when the
    solver's seeded exit made the sup norm the bound).  On groups and group
    bundles Z is the closed form's, at the unit of the largest value.
    Upper: the cheapest decomposition that reproduces phi among
    ``_candidates`` (the polar term, the completion terms and the point
    masses), tried in turn until one costs at most the lower bound times
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
    lower = NormCertificate(max(sup, solution.lower), "lower",
                            {"sup_arrow": sup_arrow, "stieltjes": stieltjes, "dual": solution.dual})
    best_cost, best_terms = np.inf, None
    for terms in _candidates(g, phi, stieltjes, orbits):
        cost = _term_cost(g, terms) if _terms_reconstruct(g, terms, phi) else np.inf
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
    """The bounds of phi below the normal range, or above 2**1000, from
    those of phi brought into [1/2, 1) by 2**lift, whose closed form, term
    reconstruction and costs keep their relative margins: the bounds scaled
    back and moved out by the rounding margin (ValueError on overflow), each
    term's two sections scaled back by half the lift, which stays exact, and
    the dual blocks as they are, since they are scale-free."""
    lower, upper = fourier_norm_bounds(g, _ldexp(phi, lift))
    fiber, sup = g.coefficient_layout.fiber, float(np.abs(phi).max())
    half = lift // 2
    terms = tuple((_ldexp(f, -half), _ldexp(h, half - lift)) for f, h in upper.witness["terms"])
    witness = {**lower.witness, "stieltjes": _lowered(g, lower.witness["stieltjes"], lift, sup)}
    return (NormCertificate(max(sup, _scaled_back(lower.value, lift, fiber, -1)), "lower", witness),
            NormCertificate(_scaled_back(upper.value, lift, fiber, 1), "upper", {"terms": terms}))
