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

The block of an orbit base is the Schur multiplier problem of its Gram
block Phi, whose value is the largest ||D_alpha Phi D_beta||_tr over unit
vectors alpha, beta >= 0 (Haagerup; Linial and Shraibman).
``_scaled_completion`` iterates the fixed point of that maximum, one stacked
SVD per fiber class per evaluation, extrapolated by SQUAREM, and every
evaluation certifies both sides: a dual block from the SVD below, and the
scaled polar completion above.  The first evaluation, at uniform weights,
is the balanced polar completion; it closes with no further step on groups
and group bundles (Eymard's norm), on positive definite phi and on rank-one
blocks.  The completion goes to the solver's seeded exit, which re-verifies
it; the interior-point method runs only where the scaling stalls, from its
lower bound.  The upper bound of
``fourier_norm_bounds`` is one term per orbit base from the solver's
completion block [[rho, Phi], [Phi^H, tau]], A = Phi (tau^1/2)^+ and
B = tau^1/2, read onto every unit by ``OrbitClass.spread``: Phi = A B^H,
and the PSD Schur complement rho - Phi tau^+ Phi^H puts its cost at most
at the SDP value.  Point masses are the fallback.  The scaling's lower
bounds and the decomposition costs carry a rounding of a few ulps per fiber
element, so the lower bound is rounded down, and the upper bound up, by
8 eps times the largest fiber size, or as many ulps where that is more.  A
phi below the normal range or above 2**1000 is solved brought into [1/2, 1)
by a power of two, and its values
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

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

import numpy as np

from .algebra import arrow_function
from .groupoid import FiniteGroupoid, pair_groupoid
from .positivity import _stacks
from .sdp import _REL_GAP, DiagBoundSdp, SdpSolution, _herm, solve_diag_bound_sdp

# the rounding margin of the scaling's lower bounds and of decomposition
# costs, in eps (or ulps, below the normal range) per fiber element
_ROUNDING = 8
# scaling evaluations after the uniform one, at most, per fiber class
_MAX_ITER = 300
# evaluations in which the scaling's gap must halve, or it has stalled
_STALL = 80
# the longest SQUAREM step (steps above 2e3 were not seen), which keeps the
# extrapolated weights finite
_STEP = 1e4
_TINY = np.finfo(float).tiny


def _read_only(a) -> np.ndarray:
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class NormCertificate:
    """A norm value together with the object that certifies it.

    kind 'optimal' carries a feasible completion (rho, tau) or (p, q) and the
    solver's certified lower bound, scaling steps, Newton steps, status and
    number of SDP blocks; 'upper' carries a list of coefficient
    factorization terms;
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
    variable ids and conjugation flags there, and their ``blocks`` in the
    declaration."""

    m: int
    gram: np.ndarray
    ids: np.ndarray
    flip: np.ndarray
    blocks: np.ndarray


class CoefficientLayout:
    """Everything of the coefficient-norm problem on g that does not depend
    on phi, built once per groupoid (``FiniteGroupoid.coefficient_layout``).

    It holds the variable ids and conjugation flags of rho and tau at the
    arrows, the kept
    rows of every fiber class (``_KeptClass``), the ``var``, ``conj``,
    ``sizes`` and ``objective`` of ``stieltjes_problem`` with the data
    positions that phi fills, the positions of rho's and tau's variables in
    the kept blocks (``assign``), the range fibers as ``_term_cost`` reads
    them, and the rounding margin, the largest fiber (``fiber``).  Every
    diagonal position of a block holds a unit arrow, an objective variable:
    Gram[p, p] = inverse(x_p) x_p, and no other position does.  Its arrays are
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
            classes.append(_KeptClass(gram.shape[1], *map(_read_only, (
                gram, ids[gram], flip[gram], block_of[units]))))
        # rho's variable at every arrow, then tau's, and whether it is held conjugated
        self.ids = _read_only(np.concatenate([ids, ids + g.n_arrows]))
        self.flip = _read_only(np.concatenate([flip, flip]))
        self.classes = tuple(classes)
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
        # the variable id at every position of rho and tau in the kept blocks,
        # block by block, whether it holds the conjugate, and how many
        # positions hold each id
        self.held = _read_only(np.concatenate([np.concatenate([c.ids, c.ids + g.n_arrows], axis=1).ravel()
                                               for c in classes]))
        self.held_flip = _read_only(np.concatenate([np.concatenate([c.flip, c.flip], axis=1).ravel()
                                                    for c in classes]))
        self.held_count = _read_only(np.maximum(np.bincount(self.held, minlength=2 * g.n_arrows), 1))

    def assign(self, completions: list, mean: bool) -> np.ndarray:
        """The assignment by variable id of a list of (blocks, 2, m, m) stacks
        of (P, Q), one per fiber class, of the kept blocks' rho and tau: each
        variable takes the value at its last position, or with ``mean`` the
        mean over its positions.  The positions of a variable are the images of one pair
        (p, q) under the isotropy permutations of the base fiber and the
        transpose (conjugated), and, when weights that are not left invariant
        make several units of an orbit bases, their permutations onto each
        other.  A completion that commutes with these permutations agrees at
        all of them; otherwise each image is a feasible completion of the
        block, and their mean is feasible too, with no larger diagonal."""
        values = np.concatenate([x.ravel() for x in completions])
        values = np.where(self.held_flip, values.conj(), values)
        size = self.held_count.size
        if mean:
            return (np.bincount(self.held, values.real, size) + 1j * np.bincount(self.held, values.imag, size)) \
                / self.held_count
        out = np.zeros(size, dtype=complex)
        out[self.held] = values
        return out

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


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two (blocks, m, n) stacks as one (blocks, 2, m, n) stack."""
    return np.concatenate([a, b], axis=1).reshape(len(a), 2, *a.shape[1:])


class _Point(NamedTuple):
    """One evaluation of the scaling on a stack of Gram blocks Phi at the
    weights x = (alpha^2, beta^2), a (blocks, 2, m) stack (None: all 1): the
    SVD D_alpha Phi D_beta = U S V^H (``u``, ``s``, ``vh``), the diagonals
    of P' = D_alpha^-1 U S U^H D_alpha^-1 and
    Q' = D_beta^-1 V S V^H D_beta^-1 (``ratio``, 0 where a weight is 0),
    the lower bound tr S / (|alpha| |beta|), max P'_ii and max Q'_jj
    (``high``), the cost sqrt(max P'_ii max Q'_jj) of the completion, and
    at uniform weights the polar parts (U S U^H, V S V^H) = (P', Q')
    themselves (``polar``)."""

    x: np.ndarray | None
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    trace: np.ndarray
    ratio: np.ndarray
    lower: np.ndarray
    high: np.ndarray
    upper: np.ndarray
    polar: np.ndarray | None

    @property
    def next(self) -> np.ndarray:
        """The map's image of x: diag U S U^H / tr S and diag V S V^H / tr S
        (0 on a block of zeros)."""
        parts = self.ratio if self.x is None else self.ratio * self.x
        return parts / np.maximum(self.trace, _TINY)[:, None, None]

    def completion(self) -> np.ndarray:
        """(c P', Q' / c) as a (blocks, 2, m, m) stack, of cost ``upper``:
        c^2 = max Q'_jj / max P'_ii (1 on a block of zeros) evens its sides.
        [[c P', Phi], [Phi^H, Q' / c]] is congruent, by D_alpha^-1 and
        D_beta^-1, to [c^1/2 U; V / c^1/2] S [c^1/2 U; V / c^1/2]^H, so PSD.
        The rows and columns of a weight 0 are 0."""
        high = np.maximum(self.high, _TINY)
        c = np.sqrt(high[:, ::-1] / high)[:, :, None, None]
        if self.polar is not None:
            return self.polar * c
        factors = _pair(self.u, _herm(self.vh)) * np.sqrt(1 / np.where(self.x > 0, self.x, np.inf))[..., None]
        return (factors * self.s[:, None, None, :]) @ _herm(factors) * c


def _evaluate(gram: np.ndarray, x: np.ndarray | None = None) -> _Point:
    """The scaling at the weights x on the stack gram: one batched SVD.  A
    weight of 0 belongs to a zero row or column of Phi, which the map keeps
    at 0, and costs nothing.  At uniform weights the completion is the
    balanced polar one, built at once: it closes on most inputs."""
    if x is None:  # D_alpha Phi D_beta is Phi
        u, s, vh = np.linalg.svd(gram)
        factors = _pair(u, _herm(vh))
        polar = (factors * s[:, None, None, :]) @ _herm(factors)
        ratio = polar.diagonal(0, 2, 3).real
        size = gram.shape[-1]
    else:
        root = np.sqrt(x)
        u, s, vh = np.linalg.svd(root[:, 0, :, None] * gram * root[:, 1, None, :])
        # diag U S U^H and diag V S V^H over the weights
        parts = (np.abs(_pair(u, vh.swapaxes(1, 2))) ** 2 @ s[:, None, :, None])[..., 0]
        ratio, polar = parts / np.where(x > 0, x, np.inf), None
        size = np.sqrt(x.sum(2).prod(1))
    high, trace = ratio.max(2), s.sum(1)
    return _Point(x, u, s, vh, trace, ratio, trace / size, high, np.sqrt(high[:, 0] * high[:, 1]), polar)


def _squarem(evaluate, x: np.ndarray):
    """The points of the scaling from the weights x, extrapolated by SQUAREM
    (Varadhan and Roland 2008) on alpha = x^1/2: from alpha_0 and its two
    images alpha_1, alpha_2 under the map, with r = alpha_1 - alpha_0 and
    v = alpha_2 - 2 alpha_1 + alpha_0, the step to alpha_0 - 2 k r + k^2 v,
    k = -|r| / |v| in [-``_STEP``, -1] (k = -1 is alpha_2), per block; the
    weights of zero rows and columns stay 0.  It continues from the step's image when its
    lower bound is no smaller than at alpha_1, else from alpha_2."""
    while True:
        p0 = evaluate(x)
        yield p0
        x1 = p0.next
        p1 = evaluate(x1)
        yield p1
        x2 = p1.next
        y0, y1 = np.sqrt(x), np.sqrt(x1)
        r = y1 - y0
        v = np.sqrt(x2) - y1 - r
        k = -np.sqrt((r * r).sum((1, 2), keepdims=True) / np.maximum((v * v).sum((1, 2), keepdims=True), _TINY))
        k = np.maximum(np.minimum(k, -1.0), -_STEP)
        pe = evaluate((y0 - k * (2 * r - k * v)) ** 2)
        yield pe
        x = np.where((pe.lower >= p1.lower)[:, None, None], pe.next, x2)


class _Scaled(NamedTuple):
    """The scaled polar completion of every orbit block by variable id
    (``seed``), the largest lower bound over the bases (``value``) and a dual
    stack that certifies it (None below ``sup``), and the evaluations after
    the uniform one (``steps``)."""

    value: float
    seed: np.ndarray
    dual: np.ndarray | None
    steps: int


def _scaled_completion(g: FiniteGroupoid, phi, problem: DiagBoundSdp, sup: float) -> _Scaled:
    """Complete every orbit block, and bound the completion problem from
    below, by the diagonal scaling of its Gram block.

    The problem at an orbit base is the Schur multiplier problem of
    Phi = phi[gram], whose value is the largest ||D_alpha Phi D_beta||_tr
    over unit vectors alpha, beta >= 0 (Haagerup; Linial and Shraibman).
    Every evaluation (``_evaluate``, one SVD D_alpha Phi D_beta = U S V^H
    per fiber class) certifies both sides.  Below, with unit alpha and beta,
    Z = [[D_alpha^2, -W], [-W^H, D_beta^2]] / 2, W = D_alpha U V^H D_beta, is
    PSD (a Gram matrix of [D_alpha U; -D_beta V]), is zero at every free
    variable, sums to 1 on the objective diagonal and has -<F0, Z> = tr S.
    Above, the completion of ``_Point.completion`` costs
    sqrt(max P'_ii max Q'_jj).  At a fixed point of the map
    alpha^2 <- diag U S U^H / tr S, beta^2 <- diag V S V^H / tr S, every
    P'_ii and Q'_jj is tr S and the sides meet.

    The first evaluation, at uniform weights, is the balanced polar
    completion rho = c U S U^H, tau = V S V^H / c of Phi, with the lower
    bound ||Phi||_tr / m.  It closes with no further step on positive
    definite phi (rho = tau = Phi, the largest unit value), on rank-one
    Phi = x y^H (|x|_inf |y|_inf, the sup norm) and on one-unit orbits,
    where Phi is a group matrix with constant diag U S U^H, a fixed point
    (Eymard's norm sum_pi d_pi ||phi^(pi)||_1 / |G|).  Blocks above
    1 + 1e-7 times the larger of sup and the best lower bound iterate,
    extrapolated by ``_squarem``, until every block is within it, until the
    gap fails to halve in ``_STALL`` evaluations, or for ``_MAX_ITER``
    evaluations; a zero row or column of Phi keeps weight 0, and any other
    weight is floored at the smallest normal float.  The map
    commutes with the isotropy permutations, so from uniform weights every
    completion meets the ties of ``stieltjes_problem`` up to rounding, which
    ``CoefficientLayout.assign`` averages out.  ``_completion_term`` reads
    its term from the completion the solver returns.
    """
    # on phi brought into [1/2, 1) by a power of two, exactly: scaled
    # weights then keep the entries of D_alpha Phi D_beta out of the subnormal
    # range, and every evaluation scales with phi
    exponent = math.frexp(sup)[1]
    phi, sup = phi * 2.0 ** -exponent, math.ldexp(sup, -exponent)
    top = (-np.inf, 0, None, 0)  # the best lower bound, its block, and its point and row there
    steps = 0

    def record(point, blocks):
        nonlocal top
        i = int(point.lower.argmax())
        if point.lower[i] > top[0]:
            top = float(point.lower[i]), int(blocks[i]), point, i
        return point

    layout = g.coefficient_layout
    grams = [phi[c.gram] for c in layout.classes]
    firsts = [record(_evaluate(x), c.blocks) for c, x in zip(layout.classes, grams)]
    completions = [first.completion() for first in firsts]
    for c, gram, first, completion in zip(layout.classes, grams, firsts, completions):
        target = (1 + _REL_GAP) * max(sup, top[0])
        if first.upper.max() <= target or not _MAX_ITER:
            continue
        rows = np.flatnonzero(first.upper > target)
        open_gram, open_blocks = gram[rows], c.blocks[rows]
        # the zero rows and columns of Phi keep weight 0; a live weight that
        # underflows is evaluated at the smallest normal float, never at 0,
        # which would read its row as a zero row; weights above it are kept
        live = np.stack([np.any(open_gram, axis=2), np.any(open_gram, axis=1)], axis=1)
        floor = live * _TINY
        best, since = np.inf, 0
        points = _squarem(lambda x: record(_evaluate(open_gram, np.maximum(x, floor)), open_blocks),
                          first.next[rows] * live)
        for last in islice(points, _MAX_ITER):
            steps += 1
            gap = float(last.upper.max()) / max(sup, top[0]) - 1
            best, since = (gap, 0) if gap <= best / 2 else (best, since + 1)
            if gap <= _REL_GAP or since >= _STALL:
                break
        completion[rows] = last.completion()
    value, block, point, i = top
    # the uniform completion commutes with the isotropy permutations to a
    # few ulps; a scaled one only to as many ulps divided by alpha_i alpha_j
    seed = layout.assign(completions, steps > 0) * 2.0 ** exponent
    if value < sup or not value:
        return _Scaled(math.ldexp(value, exponent), seed, None, steps)
    m = point.s.shape[-1]
    x = np.ones((2, m)) if point.x is None else point.x[i]
    a, b = x / x.sum(1, keepdims=True)
    dual = np.zeros(problem.data.shape, dtype=complex)
    z = dual[block, :2 * m, :2 * m]
    z[:m, m:] = -np.sqrt(a)[:, None] * (point.u[i] @ point.vh[i]) * np.sqrt(b)
    z[m:, :m] = _herm(z[:m, m:])
    z.flat[::2 * m + 1] = np.concatenate([a, b])
    z /= 2
    return _Scaled(math.ldexp(value, exponent), seed, dual, steps)


def _rounded(value: float, fiber: int, direction: int) -> float:
    """``value`` moved up (``direction`` 1) or down (-1) by ``_ROUNDING`` eps
    per element of ``fiber``, or by as many ulps where that is more (below
    the normal range); zero, which is computed exactly, stays."""
    if not value or not fiber:
        return value
    ulps = _ROUNDING * fiber
    moved = value * (1 + direction * ulps * sys.float_info.epsilon), value + direction * ulps * math.ulp(value)
    return float(max(moved) if direction > 0 else min(moved))


def _solve_stieltjes(g: FiniteGroupoid, phi: np.ndarray) -> tuple[NormCertificate, SdpSolution]:
    """The SDP of the arrow function phi from the scaled polar completion
    and the larger of the sup norm and the rounded scaling bound: a
    completion within the solver's gap verifies with no Newton step, with
    status "seeded" when it is the uniform one and "scaled" after
    ``scaling_steps`` further evaluations; otherwise the interior-point
    method runs from that bound."""
    layout = g.coefficient_layout
    problem = layout.declare(phi)
    sup = float(np.abs(phi).max(initial=0.0))
    scaled = _scaled_completion(g, phi, problem, sup)
    # the scaling's dual certifies its unrounded value, hence lower, unless sup is larger
    lower = max(sup, _rounded(scaled.value, layout.fiber, -1))
    solution = solve_diag_bound_sdp(problem, lower=lower, seeds=(scaled.seed,), dual=scaled.dual)
    values = solution.variables[layout.ids]
    rho, tau = np.where(layout.flip, values.conj(), values).reshape(2, -1)
    status = "scaled" if solution.status == "seeded" and scaled.steps else solution.status
    witness = {"rho": rho, "tau": tau, "lower": solution.lower, "iterations": solution.iterations,
               "scaling_steps": scaled.steps, "status": status, "blocks": int(problem.sizes.size)}
    return NormCertificate(solution.value, "optimal", witness), solution


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
    groupoids, and the largest one over the orbit bases' Gram blocks.  With
    no scaling step it is the largest unit value when phi is positive
    definite, the sup norm when every orbit's Gram block has rank one, and
    Eymard's norm, max over units of ||Phi_u||_tr / m, on groups and group
    bundles; elsewhere the diagonal scaling closes the 1e-7 gap, with the
    interior-point method as the fallback where it stalls.  The witness is
    a feasible (rho, tau) completion, with the certified lower bound on the
    optimum under "lower", and the work under "scaling_steps" (evaluations
    after the uniform one), "iterations" (Newton steps) and "status"
    ("seeded", "scaled" or the interior-point method's).
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
    and Q = tau.reshape(n, n), the factorization a_ij = sum_m left[i, m]
    conj(right[j, m]) of ``_completion_factors``, right = Q^1/2 and
    left = a (Q^1/2)^+, whose row norms are at most sqrt(t) (Haagerup's
    a_ij = <x_i, y_j>), and the solver's certified lower bound, scaling
    steps, Newton steps, status and number of SDP blocks.  The value is the
    largest ||D_alpha a D_beta||_tr over unit vectors alpha, beta >= 0, which
    the diagonal scaling of ``fourier_stieltjes_norm`` finds.
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
                               {**empty, "lower": 0.0, "iterations": 0, "scaling_steps": 0,
                                "status": "seeded", "blocks": 0})
    cert = _stieltjes_certificate(_pair_groupoid(n), a.ravel())
    telemetry = dict(cert.witness)
    pm, qm = telemetry.pop("rho").reshape(n, n), telemetry.pop("tau").reshape(n, n)
    # factored near the scale the solve ran at, by an even power of two whose
    # half each factor takes back, so both keep their row norms <= sqrt(t)
    half = -(-_lift(a) // 2)
    right, left = (_ldexp(x, -half)
                   for x in _completion_factors(_ldexp(a, 2 * half), _ldexp(qm, 2 * half)))
    witness = {"p_block": pm, "q_block": qm, "left": left, "right": right, **telemetry}
    return NormCertificate(cert.value, "optimal", witness)


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


def _completion_factors(phi: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, A) = (tau^1/2, phi (tau^1/2)^+) for a stack of PSD completion
    blocks [[rho, phi], [phi^H, tau]], so that phi = A B^H: PSD gives
    phi = phi tau^+ tau and a PSD Schur complement rho - phi tau^+ phi^H, so
    the squared row norms of B are diag tau and those of A at most diag rho.
    The pseudo-inverse keeps the eigenvalues of tau above 1e-12 times the
    largest, and above 0."""
    vals, vecs = np.linalg.eigh(tau)
    keep = vals > np.maximum(1e-12 * vals[..., -1:], 0.0)
    root = np.sqrt(vals, where=keep, out=np.zeros_like(vals))
    inverse = np.divide(1.0, root, where=keep, out=np.zeros_like(vals))
    back = _herm(vecs)
    return (vecs * root[..., None, :]) @ back, ((phi @ vecs) * inverse[..., None, :]) @ back


def _completion_term(g: FiniteGroupoid, phi, stieltjes: NormCertificate) -> np.ndarray:
    """The (1, 2, n_arrows) term (f, h) of ``_completion_factors`` of each
    orbit base's block [[rho_b, Phi_b], [Phi_b^H, tau_b]] of the SDP's
    completion, at most the SDP value in cost.  Phi_b and tau_b commute with
    the isotropy permutations (the Gram structure and the tied variable
    ids), so do both factors (B, A), and ``OrbitClass.spread`` reads them
    onto every unit, divided by sqrt(w): h[gram] W^1/2 = A at a base with
    fiber weights W, so the Gram block of the coefficient is A B^H, and
    ||h|| is the largest row norm of A.  On the polar seed
    (c U S U^H, V S V^H / c) this is the polar term A = sqrt(c) U S^1/2 V^H,
    B = V S^1/2 V^H / sqrt(c)."""
    tau = stieltjes.witness["tau"]
    term = np.zeros((2, g.n_arrows), dtype=complex)
    for c, o, kept in zip(g.fiber_classes, g.orbit_index, g.coefficient_layout.classes):
        term[:, c.arrows] = o.spread(np.stack(_completion_factors(phi[kept.gram], tau[kept.gram])))
    return (term / np.sqrt(g.weights))[None]


def _candidates(g: FiniteGroupoid, phi, stieltjes: NormCertificate):
    """Candidate decompositions, each a (k, 2, n_arrows) stack of terms
    (f_k, h_k), built lazily: the completion term, then the point masses."""
    yield _completion_term(g, phi, stieltjes)
    yield _delta_terms(g, phi)


def fourier_norm_bounds(g: FiniteGroupoid, phi) -> tuple[NormCertificate, NormCertificate]:
    """Two-sided bounds for the decomposition norm inf sum ||f_k|| ||g_k||.

    Lower: the larger of the sup norm and the certified dual bound of the
    coefficient norm SDP; its witness holds the dual blocks Z, one per orbit
    in the padded layout of ``stieltjes_problem(g, phi)``, PSD and dual
    feasible there, so that -<F0, Z> re-verifies the bound (None when the
    sup norm is the bound).  Z is the diagonal scaling's, at the base of the
    largest lower bound, or the interior-point method's where the scaling
    stalled.  Upper: the cheapest decomposition that reproduces phi among
    ``_candidates`` (the completion term, then the point masses), tried in
    turn until one costs at most the lower bound times 1 + 1e-7.  The
    scaling's lower bound is rounded down by its rounding margin, and the
    upper bound up by 8 eps times the largest fiber size (or as many ulps,
    below the normal range).
    """
    phi = arrow_function(g, phi)
    lift = _lift(phi)
    if lift:
        return _lowered_bounds(g, phi, lift)
    stieltjes, solution = _solve_stieltjes(g, phi)
    sup = float(np.abs(phi).max(initial=0.0))
    sup_arrow = int(np.abs(phi).argmax()) if g.n_arrows else 0
    lower = NormCertificate(max(sup, solution.lower), "lower",
                            {"sup_arrow": sup_arrow, "stieltjes": stieltjes, "dual": solution.dual})
    best_cost, best_terms = np.inf, None
    for terms in _candidates(g, phi, stieltjes):
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
