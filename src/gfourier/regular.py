"""Operators on the left-regular Hilbert module of a finite groupoid.

Sections of the module are arrow functions; the module norm of a section is
the largest weighted l2 norm of its restrictions to range fibers.  Operators
are dense complex matrices acting on section value vectors.  Adjointability
is equivalent to being block diagonal with respect to the range-fiber
partition of the arrows, and is computed, never assumed.

Right convolution by a point mass is a weighted partial permutation, with at
most one nonzero per row and column.  Its commutation equations therefore tie
two matrix positions by a scale or force one to zero, and the commutant of the
right regular representation is read off the classes of tied positions
exactly, with no null space and no rank tolerance.
"""

from __future__ import annotations

import numpy as np

from .algebra import _finite_norm, arrow_function, convolve, star
from .duality import ModuleMap
from .groupoid import FiniteGroupoid
from .numerics import RANK_TOL, base_paths, block_spectra, nullspace, orthonormal_span, row_spectra

# relative disagreement of tie scales around a cycle that empties a commutant class
TIE_TOL = 1e-10


def d_inner(g: FiniteGroupoid, xi, eta) -> np.ndarray:
    """Unit-indexed inner product, conjugate linear in the first section."""
    xi = arrow_function(g, xi)
    eta = arrow_function(g, eta)
    vals = g.weights * np.conj(xi) * eta
    return np.bincount(g.range_of, vals.real, g.n_units) + 1j * np.bincount(
        g.range_of, vals.imag, g.n_units
    )


def section_norm(g: FiniteGroupoid, xi) -> float:
    """max over units of the weighted l2 norm of the range-fiber restriction."""
    xi = arrow_function(g, xi)
    mass = g.weights * np.abs(xi) ** 2
    return float(np.sqrt(np.bincount(g.range_of, mass, g.n_units).max()))


def right_op(g: FiniteGroupoid, f) -> np.ndarray:
    """Matrix of right convolution by f: maps h to h*f.  Block diagonal over range fibers."""
    f = arrow_function(g, f)
    x, t, y, _ = g.composable_pairs
    m = np.zeros((g.n_arrows, g.n_arrows), dtype=complex)
    m[x, t] = g.weights[t] * f[y]
    return m


def left_op(g: FiniteGroupoid, f) -> np.ndarray:
    """Matrix of left convolution by f: maps h to f*h."""
    f = arrow_function(g, f)
    x, t, y, _ = g.composable_pairs
    m = np.zeros((g.n_arrows, g.n_arrows), dtype=complex)
    m[x, y] = g.weights[t] * f[t]
    return m


def unit_blocks(g: FiniteGroupoid, op) -> list[np.ndarray]:
    """Range-fiber diagonal blocks of an operator matrix."""
    op = np.asarray(op, dtype=complex)
    return [op[np.ix_(t, t)] for t in g.r_fibers]


def off_block_mass(g: FiniteGroupoid, op) -> float:
    """Largest matrix entry outside the range-fiber diagonal blocks."""
    op = np.asarray(op, dtype=complex)
    mask = g.range_of[:, None] != g.range_of[None, :]
    return float(np.abs(op[mask]).max(initial=0.0))


def is_adjointable(g: FiniteGroupoid, op, tol: float = 1e-12) -> bool:
    """Adjointable = maps each range fiber into itself (up to tol, relative)."""
    op = np.asarray(op, dtype=complex)
    scale = max(1.0, float(np.abs(op).max(initial=0.0)))
    return off_block_mass(g, op) <= tol * scale


def adjoint_op(g: FiniteGroupoid, op) -> np.ndarray:
    """Blockwise adjoint in the weighted inner product; requires adjointability."""
    op = np.asarray(op, dtype=complex)
    if not is_adjointable(g, op):
        raise ValueError("operator is not adjointable: it moves mass across range fibers")
    same_fiber = g.range_of[:, None] == g.range_of[None, :]
    return np.where(same_fiber, op.conj().T * g.weights[None, :] / g.weights[:, None], 0)


def _finite_operator(op) -> np.ndarray:
    """op as a complex array; ValueError naming its first entry that is not finite."""
    op = np.asarray(op, dtype=complex)
    bad = np.argwhere(~np.isfinite(op))
    if bad.size:
        at = tuple(map(int, bad[0]))
        raise ValueError(f"entry {at} is not finite: {op[at]}")
    return op


def operator_norm(g: FiniteGroupoid, op) -> float:
    """Exact operator norm for adjointable (block diagonal) operators.

    Per block, the spectral norm in the weighted fiber metric.  ValueError
    when an entry of op is not finite or the norm overflows.
    """
    op = _finite_operator(op)
    if not is_adjointable(g, op):
        raise ValueError("exact operator norms are only computed blockwise")
    best = 0.0
    # an overflowing tilt makes inf and nan parts (inf * 0), which LAPACK
    # would read as zeros
    with np.errstate(over="ignore", invalid="ignore"):
        for c in g.fiber_classes:
            rw = np.sqrt(g.weights[c.arrows])
            tilted = op[c.arrows[:, :, None], c.arrows[:, None, :]] * (rw[:, :, None] / rw[:, None, :])
            if not np.isfinite(tilted).all():
                best = np.inf
                break
            if tilted.size:
                best = max(best, float(np.linalg.svd(tilted, compute_uv=False)[:, 0].max()))
    return _finite_norm(best)


def reduced_norm(g: FiniteGroupoid, f) -> float:
    """C*-norm of f: the largest spectral norm of a unit block of right convolution.

    In the weighted metric the block of a range fiber is, up to transposition,
    f(inverse(x) t) sqrt(w(x) w(t)): the Gram matrix of f scaled on both sides.
    A unit's block is its orbit base's permuted by perm_u (``FiberClass.perm``),
    with the same norm, so the base alone decides it.  The base block commutes
    with the translations of its fiber by its isotropy group, and each base
    takes one of three paths (``gfourier.numerics.base_paths``).  Row: on a
    base whose isotropy blocks are all 1x1 (abelian H, an orbit of one unit),
    the singular values are w_b |lambda_j(f)|, read by ``row_spectra`` from f
    on the base fiber, with no block gathered.  Whole or split: the block is
    gathered and ``block_spectra`` takes the singular values of the whole
    blocks, where some base of the stack has trivial isotropy, or of its
    isotropy blocks (``FiniteGroupoid.isotropy_blocks``), one stacked SVD per
    block size and the modulus of a 1x1 block.  ValueError when the norm
    overflows.
    """
    f = arrow_function(g, f)
    best = 0.0
    # a complex product that overflows also makes nan parts (inf * 0), which
    # LAPACK would read as zeros and a maximum would pass over
    with np.errstate(over="ignore", invalid="ignore"):
        for c, blocks, row in base_paths(g):
            if row:
                # the base block's row at the unit arrow is f on the fiber, whose
                # arrows all have the source b, and so the weight w_b
                sigma = np.abs(row_spectra(f[c.arrows], blocks[0].unitary, c.home)) * g.weights[c.arrows[:, :1]]
            else:
                rw = np.sqrt(g.weights[c.arrows[c.rows]])
                tilted = f[c.gram[c.rows]] * (rw[:, :, None] * rw[:, None, :])
                if not np.isfinite(tilted).all():
                    best = np.inf
                    break
                sigma = block_spectra(tilted, blocks, "svd")
            top = float(sigma.max())
            best = np.inf if np.isnan(top) else max(best, top)
    return _finite_norm(best)


def operator_norm_bounds(
    g: FiniteGroupoid, op, probes: int = 64, seed: int = 0
) -> tuple[float, float]:
    """Certified (lower, upper) bounds for the section-norm operator norm.

    The max-of-fiber norm of a general operator is not a spectral quantity;
    the upper bound sums weighted spectral norms of the fiber-to-fiber blocks
    along each output fiber, the lower bound comes from random probing.  Both
    collapse to the exact value for block diagonal operators.  ValueError
    when an entry of op is not finite or a bound overflows.
    """
    op = _finite_operator(op)
    rw = [np.sqrt(g.weights[t]) for t in g.r_fibers]
    upper = lower = 0.0
    rng = np.random.default_rng(seed)
    # an overflowing tilt or probe makes inf and nan parts, which LAPACK
    # would read as zeros and section_norm refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for u, tu in enumerate(g.r_fibers):
            row = 0.0
            for v, tv in enumerate(g.r_fibers):
                block = op[np.ix_(tu, tv)] * (rw[u][:, None] / rw[v][None, :])
                if not np.isfinite(block).all():
                    row = np.inf
                elif block.size:
                    row += float(np.linalg.norm(block, 2))
            upper = max(upper, row)
        for _ in range(probes):
            xi = rng.standard_normal(g.n_arrows) + 1j * rng.standard_normal(g.n_arrows)
            image = op @ xi
            nx = section_norm(g, xi)
            if not np.isfinite(image).all():
                lower = np.inf
            elif nx > 0:
                lower = max(lower, section_norm(g, image) / nx)
    return _finite_norm(lower), _finite_norm(upper)


def right_delta_ops(g: FiniteGroupoid) -> list[np.ndarray]:
    """right_op(g, delta(g, a)) for every arrow a, scattered from the composable pairs."""
    x, t, y, _ = g.composable_pairs
    ops = np.zeros((g.n_arrows,) * 3, dtype=complex)
    ops[y, x, t] = g.weights[t]
    return list(ops)


def left_delta_ops(g: FiniteGroupoid) -> list[np.ndarray]:
    """left_op(g, delta(g, a)) for every arrow a, scattered from the composable pairs."""
    x, t, y, _ = g.composable_pairs
    ops = np.zeros((g.n_arrows,) * 3, dtype=complex)
    ops[t, x, y] = g.weights[t]
    return list(ops)


def span_basis(mats, tol: float = RANK_TOL) -> list[np.ndarray]:
    """Orthonormalized basis of the linear span of the given operator matrices."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return []
    shape = mats[0].shape
    rows = orthonormal_span(np.stack([m.ravel() for m in mats]), tol)
    return [row.reshape(shape) for row in rows]


def span_dim(mats, tol: float = RANK_TOL) -> int:
    return len(span_basis(mats, tol))


def commutant(generators, dim: int) -> list[np.ndarray]:
    """Basis of {T : TA = AT for every generator A}, by tying matrix positions.

    Every generator must be a weighted partial permutation: A[p(j), j] = a_j
    for the nonempty columns j, with at most one nonzero per row and column.
    Entry (i, j) of TA = AT then reads a_j T[i, p(j)] = b_i T[s(i), j] with
    s = p^-1 and b_i = A[i, s(i)], where a side is zero when column j or row i
    of A is empty.  So each equation either ties two positions of T by a scale
    or forces one position to zero.  The ties join the positions into classes.
    A class survives when it holds no forced zero and its scales agree around
    every cycle (to ``TIE_TOL``, relative); it gives one Frobenius-normalised
    matrix supported on it.  The supports are disjoint, so the basis is
    orthonormal; it is ordered by the smallest position of each class.  With
    no generators this is the full matrix space on ``dim`` coordinates.
    """
    gens = [np.asarray(a, dtype=complex) for a in generators]
    stack = np.stack(gens) if gens else np.zeros((0, dim, dim), dtype=complex)
    if stack.shape[1:] != (dim, dim):
        raise ValueError(f"generators have shape {stack.shape[1:]}, expected {(dim, dim)}")
    k, r, c = np.nonzero(stack)
    return _commutant_of_entries(len(stack), dim, k, r, c, stack[k, r, c])


def _commutant_of_entries(n_gens: int, dim: int, k, r, c, vals) -> list[np.ndarray]:
    """``commutant`` of n_gens generators given by their nonzeros A_k[r, c] = vals.

    The classes do not depend on the order of the nonzeros; the scales along a
    class can, at roundoff, when two ties join the same pair of classes.
    """
    for axis, line in (("row", r), ("column", c)):
        counts = np.bincount(k * dim + line)
        if counts.max(initial=0) > 1:
            gen, at = divmod(int(counts.argmax()), dim)
            raise ValueError(
                f"generator {gen} is not a weighted partial permutation: "
                f"{axis} {at} has {int(counts.max())} nonzero entries"
            )
    row_col = np.full((n_gens, dim), -1)
    row_col[k, r] = c
    row_val = np.zeros((n_gens, dim), dtype=complex)
    row_val[k, r] = vals
    col_empty = np.ones((n_gens, dim), dtype=bool)
    col_empty[k, c] = False
    # the nonzero A[r, c] is column c of TA: vals T[i, r] = row_val[i] T[row_col[i], c]
    i = np.arange(dim)
    left = i[None, :] * dim + r[:, None]
    right_row = row_col[k]
    tied = right_row >= 0
    p = left[tied]
    q = (right_row * dim + c[:, None])[tied]
    ratio = (row_val[k] / vals[:, None])[tied]
    # row r of AT against the empty columns j of A: T[c, j] = 0
    zeros = np.concatenate([left[~tied], (c[:, None] * dim + i[None, :])[col_empty[k]]])
    root, factor = _tie_classes(dim * dim, p, q, ratio)
    dead = np.zeros(dim * dim, dtype=bool)
    dead[root[zeros]] = True
    slack = np.abs(factor[p] - ratio * factor[q])
    dead[root[p[slack > TIE_TOL * np.abs(factor[p])]]] = True
    alive = np.flatnonzero(~dead[root])
    heads, which = np.unique(root[alive], return_inverse=True)
    norms = np.sqrt(np.bincount(which, weights=np.abs(factor[alive]) ** 2))
    basis = np.zeros((heads.size, dim * dim), dtype=complex)
    basis[which, alive] = factor[alive] / norms[which]
    return list(basis.reshape(-1, dim, dim))


def _tie_classes(size: int, p, q, ratio) -> tuple[np.ndarray, np.ndarray]:
    """Classes of ``size`` positions joined by the ties x[p] = ratio x[q].

    Returns each position's root, the smallest position of its class, and the
    factor with x[pos] = factor[pos] x[root] along a spanning forest.  Each
    round hooks every root that meets a tie to another class onto the smallest
    such root below it, then jumps pointers until every position points at
    its root; hooks only go down, so the links form a forest.
    """
    parent = np.arange(size)
    factor = np.ones(size, dtype=complex)
    while True:
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            factor = factor * factor[parent]
            parent = up
        rp, rq = parent[p], parent[q]
        cross = rp != rq
        if not cross.any():
            return parent, factor
        rp, rq = rp[cross], rq[cross]
        # x[rp] = rel x[rq]
        rel = ratio[cross] * factor[q[cross]] / factor[p[cross]]
        down = rp > rq
        hi = np.where(down, rp, rq)
        lo = np.where(down, rq, rp)
        scale = np.where(down, rel, 1.0 / rel)
        order = np.lexsort((lo, hi))
        first = order[np.r_[True, hi[order][1:] != hi[order][:-1]]]
        parent[hi[first]] = lo[first]
        factor[hi[first]] = scale[first]


def intersect_spans(basis_a, basis_b, tol: float = RANK_TOL) -> list[np.ndarray]:
    """Basis of the intersection of two spans of matrices."""
    a = [np.asarray(m, dtype=complex) for m in basis_a]
    b = [np.asarray(m, dtype=complex) for m in basis_b]
    if not a or not b:
        return []
    shape = a[0].shape
    va = np.stack([m.ravel() for m in a])
    vb = np.stack([m.ravel() for m in b])
    coeffs = nullspace(np.concatenate([va.T, -vb.T], axis=1), tol)
    out = []
    for c in coeffs:
        vec = c[: va.shape[0]] @ va
        out.append(vec.reshape(shape))
    return span_basis(out, tol)


def reduced_algebra_basis(g: FiniteGroupoid) -> list[np.ndarray]:
    """Basis of the span of right convolution operators (the reduced C*-algebra)."""
    return span_basis(right_delta_ops(g))


def vn_basis(g: FiniteGroupoid) -> list[np.ndarray]:
    """Basis of the commutant of all right convolution operators.

    Equal to ``commutant(right_delta_ops(g), g.n_arrows)``, but the nonzeros of
    the generators come straight from the composable pairs: right convolution
    by the point mass at y has the entry w(t) at (x, t) for each x = t y.
    """
    x, t, y, _ = g.composable_pairs
    return _commutant_of_entries(g.n_arrows, g.n_arrows, y, x, t, g.weights[t].astype(complex))


def in_span(basis, m, tol: float = 1e-8) -> bool:
    """Whether matrix m lies in the span of an orthonormal matrix basis."""
    m = np.asarray(m, dtype=complex).ravel()
    if not len(basis):
        return bool(np.linalg.norm(m) <= tol)
    b = np.stack([np.asarray(x, dtype=complex).ravel() for x in basis])
    coeff = b.conj() @ m
    resid = m - coeff @ b
    return bool(np.linalg.norm(resid) <= tol * max(1.0, float(np.linalg.norm(m))))


def extract_multiplier(r, tol: float = 1e-12) -> np.ndarray:
    """Pointwise multiplier of a support-non-increasing operator on functions.

    ``r`` acts on functions over a finite index set (a square matrix).  The
    support condition means r(delta_x) vanishes off {x}, i.e. the matrix is
    diagonal; any off-diagonal entry is reported with its witness point.
    Returns k with r(f) = k f and max|k| <= the sup-norm operator norm of r.
    """
    r = np.asarray(r, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("need a square matrix over the index set")
    scale = max(1.0, float(np.abs(r).max(initial=0.0)))
    off = np.abs(r - np.diag(np.diag(r)))
    if off.max(initial=0.0) > tol * scale:
        i, j = np.unravel_index(int(off.argmax()), off.shape)
        raise ValueError(
            f"support condition fails: applying to the point mass at {j} "
            f"produces mass {r[i, j]:.3e} at point {i}"
        )
    k = np.diag(r).copy()
    assert np.abs(k).max(initial=0.0) <= np.abs(r).sum(axis=1).max(initial=0.0) + 1e-12 * scale
    return k


def vn_commutation_defect(g: FiniteGroupoid, op) -> float:
    """Largest commutator entry of op against the right convolution generators.

    The generator of arrow y has the entry w(t) at (x, t) for each composable
    pair x = t y, so op @ A_y has column t equal to w(t) op[:, x] and A_y @ op
    has row x equal to w(t) op[t, :]; all commutators are scattered at once.
    """
    op = np.asarray(op, dtype=complex)
    x, t, y, _ = g.composable_pairs
    w = g.weights[t][:, None]
    comm = np.zeros((g.n_arrows,) * 3, dtype=complex)
    comm[y, :, t] = op[:, x].T * w
    comm[y, x, :] -= w * op[t, :]
    return float(np.abs(comm).max(initial=0.0))


def operator_to_module_map(g: FiniteGroupoid, op, tol: float = 1e-9) -> ModuleMap:
    """Right module map on arrow functions induced by a commutant operator.

    Sends f to conj(op(f*)) restricted to the unit arrows; the point mass at x
    has f* the point mass at inverse(x), so column x is conj(op[units, inverse(x)]).
    Requires op to commute with every right convolution operator (checked to
    ``tol``).
    """
    op = np.asarray(op, dtype=complex)
    scale = max(1.0, float(np.abs(op).max(initial=0.0)))
    defect = vn_commutation_defect(g, op)
    if defect > tol * scale:
        raise ValueError(
            f"operator does not commute with right convolutions (defect {defect:.3e})"
        )
    return ModuleMap(matrix=np.conj(op[np.ix_(g.unit_arrows, g.inverse_of)]), side="right")


def apply_operator_identity_check(g: FiniteGroupoid, op, f, h) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the pairing identity conj(op(f*h~)) on units vs <op f, h>."""
    lhs = np.conj((op @ convolve(g, f, star(g, h))))[g.unit_arrows]
    rhs = d_inner(g, op @ arrow_function(g, f), h)
    return lhs, rhs
