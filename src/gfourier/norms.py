"""Factorization norms: the coefficient norm SDP, Schur multiplier cb-norms,
and two-sided bounds for the decomposition norm.

The coefficient norm of phi is the largest Schur multiplier norm of the Gram
blocks Phi_b = phi[gram] of the orbit bases b (``FiniteGroupoid.orbit_index``),
each base's untied block [[P, Phi_b], [Phi_b^H, Q]] solved alone (Bozejko and
Fendler; for groupoids Renault).  Averaged over the isotropy group H_b, an
optimal completion stays optimal and becomes the Gram block of functions rho
and tau, the witness.  ``schur_cb_norm`` is the same solve on one block.

The block of an orbit base is the Schur multiplier problem of its Gram
block Phi, the largest f(a, b) = ||D_a^1/2 Phi D_b^1/2||_tr over weights
a, b on two unit simplices (Haagerup; Linial and Shraibman), a concave
function.  ``_complete`` iterates its fixed point, one stacked SVD per block
size per evaluation, extrapolated by SQUAREM, each evaluation certifying a
dual block below and a scaled polar completion above; the first, at uniform
weights, closes on groups and group bundles (Eymard's norm), on positive
definite phi and on rank-one blocks.  Where the scaling stalls, at an
optimum on the boundary, ``_close`` finishes the block on its active face by
Newton steps.  The averaged completion goes to the seeded re-check of
``gfourier.sdp``.  The upper bound of
``fourier_norm_bounds`` is one term per orbit base from the witness's
completion block [[rho, Phi], [Phi^H, tau]], A = Phi (tau^1/2)^+ and
B = tau^1/2, read onto every unit by ``OrbitClass.spread``: Phi = A B^H,
and the PSD Schur complement rho - Phi tau^+ Phi^H puts its cost at most
at the SDP value.  Point masses are the fallback.  The scaling's lower
bounds and the decomposition costs carry a rounding of a few ulps per fiber
element, so the lower bound is rounded down, and the upper bound up, by
8 eps times the largest fiber size, or as many ulps where that is more.  A
phi below the normal range or above 2**1000 is solved brought into [1/2, 1)
by a power of two, and its values are scaled back and rounded outwards by
the same margin, or raise ValueError when they overflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import NamedTuple

import numpy as np

from .algebra import arrow_function
from .groupoid import FiniteGroupoid
from .positivity import _stacks
from .sdp import _REL_GAP, SdpSolution, _blocks, _herm, solve_diag_bound_sdp

# the rounding margin of the scaling's lower bounds and of decomposition
# costs, in eps (or ulps, below the normal range) per fiber element
_ROUNDING = 8
# scaling evaluations after the uniform one, at most, per block size
_MAX_ITER = 300
# evaluations in which the scaling's gap must halve, or it has stalled
_STALL = 80
# the longest SQUAREM step (steps above 2e3 were not seen), which keeps the
# extrapolated weights finite
_STEP = 1e4
_TINY = np.finfo(float).tiny
# a weight of the stall-closing step below this fraction of the largest on
# its side is 0: the face it spans is the active set
_ACTIVE = 1e-12


@dataclass(frozen=True)
class NormCertificate:
    """A norm value together with the object that certifies it.

    kind 'optimal' carries a feasible completion (rho, tau) or (p, q) and the
    solver's certified lower bound, scaling steps, Newton steps, status and
    number of SDP blocks; 'upper' carries a list of coefficient
    factorization terms; 'lower' carries the arrow that attains the sup
    bound and the dual blocks that certify the SDP bound.
    """

    value: float
    kind: str
    witness: dict


class _Bases(NamedTuple):
    """The orbit bases of a coefficient-norm problem: their (k, m, m) stacks
    of Gram ids, one per fiber class (``grams``), raveled into one array
    (``at``) in which every id occurs; the id of the inverse of every id
    (``inverse``), the ids on the diagonals (``units``) and the largest m
    (``fiber``).  The blocks of the problem are the bases in this order."""

    at: np.ndarray
    inverse: np.ndarray
    units: np.ndarray
    grams: tuple
    fiber: int


def _bases(g: FiniteGroupoid) -> _Bases:
    """The orbit bases of g, class by class (``fiber_classes``,
    ``orbit_index``)."""
    ids = tuple(c.gram[o.rows] for c, o in zip(g.fiber_classes, g.orbit_index))
    return _Bases(np.concatenate([x.ravel() for x in ids]), g.inverse_of, g.unit_arrows, ids,
                  max(x.shape[1] for x in ids))


def _matrix_bases(n: int) -> _Bases:
    """One n x n block whose position (i, j) has id i n + j and inverse
    j n + i: the one orbit base of the pair groupoid of n points."""
    ids = np.arange(n * n).reshape(n, n)
    return _Bases(ids.ravel(), ids.T.ravel(), np.arange(n) * (n + 1), (ids[None],), n)


def _average(bases: _Bases, values: np.ndarray) -> np.ndarray:
    """(rho, tau) by id from the (2, len(at)) values of P and Q at the
    positions of the Gram ids ``bases.at``: their means over the base
    positions of each id, an orbit of the base's isotropy group.  The
    transposed position carries the inverse id, so the mean is conjugation
    symmetric; its half-sum with its conjugate there makes that exact."""
    n = bases.inverse.size
    index = np.concatenate([bases.at, bases.at + n])
    values = values.ravel()
    sums = np.bincount(index, values.real, 2 * n) + 1j * np.bincount(index, values.imag, 2 * n)
    mean = sums.reshape(2, n) / np.bincount(bases.at, minlength=n)
    return (mean + mean[:, bases.inverse].conj()) / 2


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

    def completion(self, rows=slice(None)) -> np.ndarray:
        """(c P', Q' / c) of the blocks ``rows`` as a (blocks, 2, m, m)
        stack, of cost ``upper``: c^2 = max Q'_jj / max P'_ii (1 on a block
        of zeros) evens its sides.  [[c P', Phi], [Phi^H, Q' / c]] is
        congruent, by D_alpha^-1 and D_beta^-1, to
        [c^1/2 U; V / c^1/2] S [c^1/2 U; V / c^1/2]^H, so PSD.  The rows and
        columns of a weight 0 are 0."""
        high = np.maximum(self.high[rows], _TINY)
        c = np.sqrt(high[:, ::-1] / high)[:, :, None, None]
        if self.polar is not None:
            return self.polar[rows] * c
        x = self.x[rows]
        factors = _pair(self.u[rows], _herm(self.vh[rows])) * np.sqrt(1 / np.where(x > 0, x, np.inf))[..., None]
        return (factors * self.s[rows][:, None, None, :]) @ _herm(factors) * c


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


def _cost(completion: np.ndarray) -> float:
    """sqrt(max P_ii max Q_jj) of a (2, m, m) completion."""
    return math.sqrt(float(completion.diagonal(0, 1, 2).real.max(1).prod()))


def _spectral(face: np.ndarray, w: np.ndarray):
    """f = ||D_a^1/2 Phi D_b^1/2||_tr on the p x q face Phi at the positive
    weights w = (a, b), its gradient (diag U S U^H / a, diag V S V^H / b) / 2,
    the scaling's ratio over 2, and its Hessian, from one SVD M = U S V^H:
    the derivative of (M M^H)^1/2 = U S U^H divides U-basis entries by
    s_k + s_l (Daleckii and Krein), which gives the divided differences
    (s_k^2 + s_l^2) / (s_k + s_l) between two rows and s_k s_l / (s_k + s_l)
    between a row and a column, 0 where both are 0."""
    p = face.shape[0]
    u, s, vh = np.linalg.svd(np.sqrt(w[:p])[:, None] * face * np.sqrt(w[p:]))
    v, r = _herm(vh), s.size

    def between(x, y, num, sx, sy):  # Re sum_kl x_ik conj(x_il) num_kl / (sx_k + sy_l) conj(y_jk) y_jl
        den = sx[:, None] + sy
        d = np.divide(num, den, out=np.zeros_like(den), where=den > 0).ravel()
        px, py = ((z[:, :, None] * z.conj()[:, None, :]).reshape(len(z), -1) for z in (x, y))
        return ((px * d) @ _herm(py)).real

    sides = []
    for x in (u, v):
        t = np.pad(s, (0, len(x) - r))
        sides.append(between(x, x, t[:, None] ** 2 + t ** 2, t, t) / 2)
    cross = between(u[:, :r], v[:, :r], s[:, None] * s, s, s)
    diag = np.concatenate([(np.abs(u[:, :r]) ** 2) @ s, (np.abs(v[:, :r]) ** 2) @ s])
    k = np.block([[sides[0], cross], [cross.T, sides[1]]]) / 2
    return float(s.sum()), diag / (2 * w), k / np.outer(w, w) - np.diag(diag / (2 * w * w))


def _ascend(face: np.ndarray, w: np.ndarray, mu: float = 1e-3) -> tuple[np.ndarray, np.ndarray, int]:
    """The weights that maximize f on the face from the positive weights w
    (a of its rows, then b of its columns): Newton steps on f + mu sum log w
    under sum a = sum b = 1, scaled by w so that tiny weights keep their
    scale, each raising that objective and keeping 1% of the way to the
    boundary; mu falls from ``mu`` f / |w| a hundredfold to 1e-15 f / |w|,
    then to 0, once the Newton decrement is below mu / 1000 (or 1e-15 f, the
    rounding of f).  Returns the weights,
    which stay (above ``_ACTIVE`` of the largest on their side, with a ratio
    within 1e-6 of f) and the steps."""
    p = face.shape[0]
    w = np.concatenate([w[:p] / w[:p].sum(), w[p:] / w[p:].sum()])
    sums = np.repeat(np.eye(2), [p, w.size - p], axis=1)  # the rows of sum a and sum b
    value, gradient, hessian = _spectral(face, w)
    steps, scale = 0, value / w.size
    for mu in [*(mu * scale * 0.01 ** np.arange(round(np.log10(mu / 1e-15)) // 2 + 1)), 0.0]:
        for _ in range(30):
            g, h = gradient + mu / w, hessian - np.diag(mu / w ** 2)
            kkt = np.block([[h * np.outer(w, w), (sums * w).T], [sums * w, np.zeros((2, 2))]])
            d = w * np.linalg.lstsq(kkt, np.concatenate([-g * w, [0.0, 0.0]]), rcond=None)[0][:w.size]
            steps += 1
            alpha = min(1.0, 0.99 * float((-w[d < 0] / d[d < 0]).min(initial=np.inf)))
            objective = value + mu * np.log(w).sum()
            for _ in range(30):
                step = w + alpha * d
                trial = _spectral(face, step)
                if trial[0] + mu * np.log(step).sum() >= objective - 1e-15 * abs(objective):
                    break
                alpha /= 2
            else:
                break
            w, (value, gradient, hessian) = step, trial
            if d @ g <= max(1e-3 * mu, 1e-15 * value):
                break
    top = np.repeat([w[:p].max(), w[p:].max()], [p, w.size - p])
    return w, (w >= _ACTIVE * top) & (2 * gradient >= (1 - 1e-6) * value), steps


def _close(gram: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The stall-closing step on one m x m Gram block from the weights x,
    (2, m), of the scaling's best lower point: the cheapest completion, the
    weights of the best lower bound (0 off the active set), Newton steps.

    ``_ascend`` maximizes f on the face A x B of the weights above 1e-10 of
    the largest, and on the weights that stay; the face's SVD there gives
    balanced factors Phi_AB = X_A Y_B^H of squared row norms t = f.  The
    other rows take the least-norm X_I = Phi_IB (Y_B^H)^+, the other columns
    Y_J = Phi_AJ^H (X_A^H)^+; one not reached that way, or above t, is a
    violator.  The lower-rank rest R = Phi_IJ - X_I Y_J^H fills the budgets
    t - |x_i|^2 and t - |y_j|^2 when ``_complete`` on R, divided by their
    roots, is at most 1; else the active weights of that solve violate.
    Violators join at 1e-3 of the largest weight, until the bracket closes,
    nothing violates or a face repeats.  The completion [X; Y][X; Y]^H has
    its diagonal raised by the Frobenius norm of Phi - X Y^H, so it is PSD
    whatever the rounding.  A real block is solved in real arithmetic."""
    if not gram.imag.any():
        gram = gram.real
    m = len(gram)
    live = np.concatenate([np.any(gram, axis=1), np.any(gram, axis=0)])
    active = live & (x.ravel() > 1e-10 * np.repeat(x.max(1), m))
    w = np.where(active, x.ravel(), 0.0)
    best, best_cost, low, newton, seen = None, np.inf, (-np.inf, None), 0, set()
    while active.tobytes() not in seen:
        seen.add(active.tobytes())
        start = 1e-3
        while True:  # shrink to the weights that stay, and re-solve from near the optimum
            rows, cols = np.flatnonzero(active[:m]), np.flatnonzero(active[m:])
            face = np.concatenate([rows, m + cols])
            w[face], keep, steps = _ascend(gram[np.ix_(rows, cols)], w[face], start)
            newton, start = newton + steps, 1e-9
            if keep.all():
                break
            w[face[~keep]], active[face[~keep]] = 0.0, False
        a, b = w[rows] / w[rows].sum(), w[m + cols] / w[m + cols].sum()
        u, s, vh = np.linalg.svd(np.sqrt(a)[:, None] * gram[np.ix_(rows, cols)] * np.sqrt(b))
        if s.sum() > low[0]:
            low = (float(s.sum()), np.zeros((2, m)))
            low[1][0, rows], low[1][1, cols] = a, b
        r = s.size
        xa, yb = u[:, :r] * np.sqrt(s / a[:, None]), _herm(vh)[:, :r] * np.sqrt(s / b[:, None])
        scale = ((np.abs(yb) ** 2).sum(1).max() / (np.abs(xa) ** 2).sum(1).max()) ** 0.25
        xa, yb = xa * scale, yb / scale  # balanced: both sides' squared row norms are f
        t = float((np.abs(xa) ** 2).sum(1).max())
        others = np.flatnonzero(~active[:m]), np.flatnonzero(~active[m:])
        factors = np.zeros((2, m, r), dtype=gram.dtype)
        factors[0, rows], factors[1, cols] = xa, yb
        factors[0, others[0]] = gram[np.ix_(others[0], cols)] @ np.linalg.pinv(_herm(yb))
        factors[1, others[1]] = _herm(gram[np.ix_(rows, others[1])]) @ np.linalg.pinv(_herm(xa))
        rest = gram - factors[0] @ _herm(factors[1])
        budget = [t - (np.abs(factors[k, others[k]]) ** 2).sum(1) for k in (0, 1)]
        off = 1e-12 * float(np.abs(gram).max())
        grow = np.zeros(2 * m, dtype=bool)
        grow[others[0]] = (budget[0] < -1e-10 * t) | (np.abs(rest[np.ix_(others[0], cols)]).max(1, initial=0) > off)
        grow[m + others[1]] = (budget[1] < -1e-10 * t) | (np.abs(rest[np.ix_(rows, others[1])]).max(0, initial=0) > off)
        schur = rest[np.ix_(*others)]
        schur[np.abs(schur) <= off] = 0.0
        if not grow.any() and schur.any():
            roots = [np.sqrt(np.maximum(x, 1e-30 * t)) for x in budget]
            size = max(schur.shape)
            scaled = np.zeros((1, size, size), dtype=gram.dtype)
            scaled[0, :len(roots[0]), :len(roots[1])] = schur / roots[0][:, None] / roots[1]
            (completion,), (value, _, point, i), _, n, _ = _complete([scaled], float(np.abs(scaled).max()))
            newton += n
            tau = completion[0, 1].copy()  # pinned to the cost, as checked, so both factors keep within it
            tau.flat[::size + 1] = _cost(completion[0])
            right, left = _completion_factors(scaled[0], tau)
            extra = np.zeros((2, m, size), dtype=gram.dtype)
            extra[0, others[0]] = left[:len(roots[0])] * roots[0][:, None]
            extra[1, others[1]] = right[:len(roots[1])] * roots[1][:, None]
            factors = np.concatenate([factors, extra], axis=2)
            if _cost(completion[0]) > 1 + 1e-9:  # the weights of the solve's lower bound join
                if value < np.abs(scaled).max():  # the sup norm, at its entry
                    weights = np.eye(size)[list(np.unravel_index(np.abs(scaled[0]).argmax(), (size, size)))]
                else:
                    weights = np.ones((2, size)) if point.x is None else point.x[i]
                hit = weights > _ACTIVE * weights.max(1, keepdims=True)
                grow[others[0]] = hit[0, :len(roots[0])]
                grow[m + others[1]] = hit[1, :len(roots[1])]
        slack = float(np.linalg.norm(gram - factors[0] @ _herm(factors[1])))
        completion = factors @ _herm(factors) + slack * np.eye(m)
        high = completion.diagonal(0, 1, 2).real.max(1)
        completion *= np.sqrt(high[::-1] / high)[:, None, None]
        if _cost(completion) < best_cost:
            best, best_cost = completion, _cost(completion)
        if best_cost <= low[0] * (1 + _REL_GAP) or not grow.any():
            break
        w[grow] = 1e-3 * np.repeat([w[:m].max(), w[m:].max()], m)[grow]
        active |= grow
    return best, low[1], newton


def _complete(grams: list[np.ndarray], sup: float):
    """Complete the blocks of the (k, m, m) stacks ``grams`` (numbered in
    turn) by the diagonal scaling, and bound them from below.

    Every evaluation (``_evaluate``) certifies both sides; the first, at
    uniform weights, is the balanced polar completion.  Blocks above
    1 + 1e-7 times the larger of sup and the
    best lower bound iterate the map alpha^2 <- diag U S U^H / tr S,
    beta^2 <- diag V S V^H / tr S, whose fixed point meets both sides,
    extrapolated by ``_squarem``, until every block is within it, the gap
    of the cheapest evaluation fails to halve in ``_STALL`` evaluations, or
    for ``_MAX_ITER`` evaluations (0: the uniform one alone); a zero row or
    column of Phi keeps weight 0, and any other weight is floored at the
    smallest normal float.  Each block keeps its cheapest completion.  A
    block still open then takes ``_close`` from its best lower point, and so
    does one whose cheapest completion, read through a weight below 1e-10 of
    the largest, is not PSD.  Returns the completions, one (k, 2, m, m)
    stack per class, the best lower bound with its block, point and row
    there, the evaluations after the uniform one, the Newton steps and the
    ``_close`` calls."""
    top = (-np.inf, 0, None, 0)  # the best lower bound, its block, and its point and row there
    steps = newton = closes = 0

    def record(point, blocks):
        nonlocal top
        i = int(point.lower.argmax())
        if point.lower[i] > top[0]:
            top = float(point.lower[i]), int(blocks[i]), point, i
        return point

    starts = np.cumsum([0] + [len(x) for x in grams])
    firsts = [record(_evaluate(gram), np.arange(a, b)) for gram, a, b in zip(grams, starts, starts[1:])]
    completions = [first.completion() for first in firsts]
    for gram, first, completion, start in zip(grams, firsts, completions, starts):
        blocks = start + np.arange(len(gram))
        target = (1 + _REL_GAP) * max(sup, top[0])
        if first.upper.max() <= target or not _MAX_ITER:
            continue
        rows = np.flatnonzero(first.upper > target)
        open_gram, open_blocks = gram[rows], blocks[rows]
        # the zero rows and columns of Phi keep weight 0; a live weight that
        # underflows is evaluated at the smallest normal float, never at 0,
        # which would read its row as a zero row; weights above it are kept
        live = np.stack([np.any(open_gram, axis=2), np.any(open_gram, axis=1)], axis=1)
        floor = live * _TINY
        # every evaluation's bounds and weights (the uniform one first), from
        # which each block's cheapest completion and best lower point are
        # rebuilt; the gap is judged on the cheapest evaluation
        uppers, lowers, xs = [first.upper[rows]], [first.lower[rows]], [np.ones(live.shape)]
        least, best, since = float(uppers[0].max()), np.inf, 0
        points = _squarem(lambda x: record(_evaluate(open_gram, np.maximum(x, floor)), open_blocks),
                          first.next[rows] * live)
        for count, last in enumerate(islice(points, _MAX_ITER), 1):
            uppers.append(last.upper)
            lowers.append(last.lower)
            xs.append(last.x)
            least = min(least, float(last.upper.max()))
            gap = least / max(sup, top[0]) - 1
            best, since = (gap, 0) if gap <= best / 2 else (best, since + 1)
            if gap <= _REL_GAP or since >= _STALL:
                break
        steps += count
        target = (1 + _REL_GAP) * max(sup, top[0])
        if last.upper.max() <= target and last.x.min() >= 1e-10 * last.x.max():  # closed, through no tiny weight
            completion[rows] = last.completion()
            continue
        # per block the evaluation of its cheapest completion (0, the uniform one, is in place); one
        # read through a weight below 1e-10 of the largest may round away from PSD, and counts only
        # where, pinned as the re-check pins it, it is PSD
        owner = np.argmin(uppers, axis=0)
        cheap, doubt = np.min(uppers, axis=0), np.zeros(rows.size, dtype=bool)
        for j in np.unique(owner[owner > 0]):
            mine = owner == j
            point, at = (last, mine) if j == count else (_evaluate(open_gram[mine], xs[j][mine]), slice(None))
            completion[rows[mine]], x = point.completion(at), xs[j][mine]
            doubt[mine] = np.any((x < 1e-10 * x.max(2, keepdims=True)) & live[mine], axis=(1, 2))
        if doubt.any():
            pinned = _blocks(completion[rows[doubt]], open_gram[doubt], cheap[doubt])
            bad = np.linalg.eigvalsh(pinned)[:, 0] < -1e-10 * np.abs(open_gram[doubt]).max((1, 2))
            cheap[np.flatnonzero(doubt)[bad]] = np.inf
        for i in np.flatnonzero(cheap > target):
            start = xs[int(np.argmax([low[i] for low in lowers]))][i]  # the best lower point
            closed, x, n = _close(open_gram[i], start)
            newton, closes = newton + n, closes + 1
            with np.errstate(over="ignore"):  # its upper side, read through zero weights, goes unused
                record(_evaluate(open_gram[i:i + 1], np.maximum(x, floor[i])[None]), open_blocks[i:i + 1])
            if _cost(closed) < cheap[i]:
                completion[rows[i]] = closed
    return completions, top, steps, newton, closes


class _Scaled(NamedTuple):
    """``_complete`` on the bases: P and Q in the order of ``_Bases.at``, the
    largest lower bound, a dual stack that certifies it (None below sup),
    the evaluations after the uniform one, Newton steps and ``_close`` calls."""

    value: float
    completion: np.ndarray
    dual: np.ndarray | None
    steps: int
    newton: int
    closes: int


def _scaled_completion(bases: _Bases, phi: np.ndarray, sup: float) -> _Scaled:
    """``_complete`` on every orbit base's Gram block of phi, and the dual
    block of its best lower bound tr S at unit alpha and beta, padded to the
    largest base (zero elsewhere): Z = [[D_alpha^2, -W], [-W^H, D_beta^2]] / 2
    with W = D_alpha U V^H D_beta is PSD, zero at every free variable, sums
    to 1 on the objective diagonal and has -<F0, Z> = tr S."""
    # on phi brought into [1/2, 1) by a power of two, exactly: scaled
    # weights then keep the entries of D_alpha Phi D_beta out of the subnormal
    # range, and every evaluation scales with phi
    exponent = math.frexp(sup)[1]
    sup = math.ldexp(sup, -exponent)
    grams = [phi[ids] * 2.0 ** -exponent for ids in bases.grams]
    completions, top, steps, newton, closes = _complete(grams, sup)
    completion = np.concatenate([x.swapaxes(0, 1).reshape(2, -1) for x in completions], axis=1) * 2.0 ** exponent
    value, block, point, i = top
    if value < sup or not value:
        return _Scaled(math.ldexp(value, exponent), completion, None, steps, newton, closes)
    m = point.s.shape[-1]
    x = np.ones((2, m)) if point.x is None else point.x[i]
    a, b = x / x.sum(1, keepdims=True)
    s = 2 * bases.fiber
    dual = np.zeros((sum(len(x) for x in grams), s, s), dtype=complex)
    z = dual[block, :2 * m, :2 * m]
    z[:m, m:] = -np.sqrt(a)[:, None] * (point.u[i] @ point.vh[i]) * np.sqrt(b)
    z[m:, :m] = _herm(z[:m, m:])
    z.flat[::2 * m + 1] = np.concatenate([a, b])
    z /= 2
    return _Scaled(math.ldexp(value, exponent), completion, dual, steps, newton, closes)


def _rounded(value: float, fiber: int, direction: int) -> float:
    """``value`` moved up (``direction`` 1) or down (-1) by ``_ROUNDING`` eps
    per element of ``fiber``, or by as many ulps where that is more (below
    the normal range); zero, which is computed exactly, stays."""
    if not value or not fiber:
        return value
    ulps = _ROUNDING * fiber
    moved = value * (1 + direction * ulps * sys.float_info.epsilon), value + direction * ulps * math.ulp(value)
    return float(max(moved) if direction > 0 else min(moved))


def _solve(bases: _Bases, phi: np.ndarray) -> tuple[NormCertificate, SdpSolution]:
    """The completion of ``_scaled_completion``, averaged, re-checked by the
    seeded exit of ``gfourier.sdp`` against the larger of the sup norm and
    the rounded scaling bound, with the status of ``fourier_stieltjes_norm``.
    The witness holds the value at units."""
    sup = float(np.abs(phi).max(initial=0.0))
    scaled = _scaled_completion(bases, phi, sup)
    # the scaling's dual certifies its unrounded value, hence lower, unless sup is larger
    lower = max(sup, _rounded(scaled.value, bases.fiber, -1))
    averaged = _average(bases, scaled.completion)
    solution = solve_diag_bound_sdp(bases.grams, phi, averaged, lower, scaled.dual, scaled.closes, scaled.newton)
    # rounded up as lower is rounded down, the scaling's bound keeps
    # lower <= optimum <= value where the sides meet (raised, a block stays PSD)
    solution.value = max(solution.value, _rounded(scaled.value, bases.fiber, 1))
    averaged[:, bases.units] = solution.value
    status = solution.status
    if status == "seeded" and (scaled.closes or scaled.steps):
        status = "active-set" if scaled.closes else "scaled"
    witness = {"rho": averaged[0], "tau": averaged[1], "lower": solution.lower, "iterations": solution.iterations,
               "scaling_steps": scaled.steps, "status": status, "blocks": sum(len(x) for x in bases.grams)}
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


def _lowered(cert: NormCertificate, lift: int, sup: float, fiber: int) -> NormCertificate:
    """The coefficient-norm certificate of phi from that of phi lifted by
    2**lift: the completion scaled back, the value rounded up and the lower
    bound down, by the rounding margin of ``fiber``, because scaling back
    into the subnormal range rounds (ValueError on overflow); sup, the sup
    norm of phi, stays a lower bound."""
    w = cert.witness
    value = _scaled_back(cert.value, lift, fiber, 1)
    witness = {**w, "rho": _ldexp(w["rho"], -lift), "tau": _ldexp(w["tau"], -lift),
               "lower": max(sup, _scaled_back(w["lower"], lift, fiber, -1))}
    return NormCertificate(value, cert.kind, witness)


def _stieltjes_certificate(bases: _Bases, phi: np.ndarray) -> NormCertificate:
    """The certificate of ``_solve``; phi below the normal range or
    above 2**1000 is solved brought into [1/2, 1) by a power of two, where
    the closed form and the seeded exit keep their margins, and scaled back."""
    lift = _lift(phi)
    if not lift:
        return _solve(bases, phi)[0]
    return _lowered(_solve(bases, _ldexp(phi, lift))[0], lift, float(np.abs(phi).max()), bases.fiber)


def fourier_stieltjes_norm(g: FiniteGroupoid, phi) -> NormCertificate:
    """Coefficient norm bound of phi via the block completion SDP.

    Always >= the sup norm; equal to the Schur multiplier cb-norm on pair
    groupoids, and the largest one over the orbit bases' Gram blocks.  With
    no scaling step it is the largest unit value when phi is positive
    definite, the sup norm when every orbit's Gram block has rank one, and
    Eymard's norm, max over units of ||Phi_u||_tr / m, on groups and group
    bundles; elsewhere the diagonal scaling closes the 1e-7 gap, and where
    it stalls the stall-closing step on its active weights.  The witness is
    a feasible (rho, tau) completion, with the certified lower bound on the
    optimum under "lower", and the work under "scaling_steps" (evaluations
    after the uniform one), "iterations" (Newton steps of the stall-closing
    step) and "status": "seeded", "scaled", "active-set", or "open" where
    the bracket stays wider than 1e-7 (value and lower bound still hold).
    """
    return _stieltjes_certificate(_bases(g), arrow_function(g, phi))


# ---------------------------------------------------------------------------
# Schur multipliers


def schur_cb_norm(a) -> NormCertificate:
    """Completely bounded norm of the Schur (entrywise) multiplier by a.

    The solve of ``fourier_stieltjes_norm`` on the one block a, whose
    position (i, j) has the id i n + j of the arrow (i, j) of the pair
    groupoid of n points, so that both give one result there, with no
    groupoid built.  The witness carries the completion's diagonal blocks
    P = rho.reshape(n, n) and Q = tau.reshape(n, n), the factorization
    a_ij = sum_m left[i, m] conj(right[j, m]) of ``_completion_factors``, right = Q^1/2 and
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
        empty = {key: np.zeros((0, 0), dtype=complex) for key in ("p_block", "q_block", "left", "right")}
        witness = {**empty, "lower": 0.0, "iterations": 0, "scaling_steps": 0, "status": "seeded", "blocks": 0}
        return NormCertificate(0.0, "optimal", witness)
    cert = _stieltjes_certificate(_matrix_bases(n), a.ravel())
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
    """sum over k of ||f_k|| ||h_k|| for a (k, 2, n_arrows) stack of terms (f_k, h_k),
    read on the range fibers of ``fiber_classes``; each section is divided by
    a power of two near its largest modulus before it is squared, so
    subnormal entries do not square to zero."""
    cost = 0.0
    for part in _stacks(np.arange(len(terms)), 2 * g.n_arrows):
        size = np.abs(terms[part])
        _, exponent = np.frexp(size.max(axis=2, initial=0.0))
        mass = g.weights * np.ldexp(size, -exponent[:, :, None]) ** 2
        fibers = (mass[:, :, c.arrows].sum(axis=3).max(axis=2) for c in g.fiber_classes)
        norms = np.ldexp(np.sqrt(reduce(np.maximum, fibers)), exponent)
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
    the isotropy permutations (both are functions of the Gram id), so do both
    factors (B, A), and ``OrbitClass.spread`` reads them
    onto every unit, divided by sqrt(w): h[gram] W^1/2 = A at a base with
    fiber weights W, so the Gram block of the coefficient is A B^H, and
    ||h|| is the largest row norm of A.  On the polar seed
    (c U S U^H, V S V^H / c) this is the polar term A = sqrt(c) U S^1/2 V^H,
    B = V S^1/2 V^H / sqrt(c)."""
    tau = stieltjes.witness["tau"]
    term = np.zeros((2, g.n_arrows), dtype=complex)
    for c, o in zip(g.fiber_classes, g.orbit_index):
        gram = c.gram[o.rows]
        term[:, c.arrows] = o.spread(np.stack(_completion_factors(phi[gram], tau[gram])))
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
    base in the order of ``fiber_classes``, padded to the largest: PSD and
    zero off the diagonals of their P and Q parts, so dual feasible also where
    rho and tau are shared, and -<F0, Z> re-verifies the bound (None when the
    sup norm is the bound).  Z is the diagonal scaling's, at the base and
    weights of the largest lower bound, those of the stall-closing step's
    active face included (zero off it).  Upper: the cheapest decomposition that reproduces phi among
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
    bases = _bases(g)
    stieltjes, solution = _solve(bases, phi)
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
    upper = NormCertificate(_rounded(best_cost, bases.fiber, 1), "upper",
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
    fiber, sup = max(c.arrows.shape[1] for c in g.fiber_classes), float(np.abs(phi).max())
    half = lift // 2
    terms = tuple((_ldexp(f, -half), _ldexp(h, half - lift)) for f, h in upper.witness["terms"])
    witness = {**lower.witness, "stieltjes": _lowered(lower.witness["stieltjes"], lift, sup, fiber)}
    return (NormCertificate(max(sup, _scaled_back(lower.value, lift, fiber, -1)), "lower", witness),
            NormCertificate(_scaled_back(upper.value, lift, fiber, 1), "upper", {"terms": terms}))
