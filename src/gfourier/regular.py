"""Operators on the left-regular Hilbert module of a finite groupoid.

Sections of the module are arrow functions; the module norm of a section is
the largest weighted l2 norm of its restrictions to range fibers.  Operators
are dense complex matrices acting on section value vectors.  Adjointability
is equivalent to being block diagonal with respect to the range-fiber
partition of the arrows, and is computed, never assumed.
"""

from __future__ import annotations

import numpy as np

from .algebra import arrow_function, convolve, delta, star
from .duality import ModuleMap
from .groupoid import FiniteGroupoid
from .numerics import RANK_TOL, nullspace, orthonormal_span


def d_inner(g: FiniteGroupoid, xi, eta) -> np.ndarray:
    """Unit-indexed inner product, conjugate linear in the first section."""
    xi = arrow_function(g, xi)
    eta = arrow_function(g, eta)
    vals = g.weights * np.conj(xi) * eta
    return np.array([vals[t].sum() for t in g.r_fibers])


def section_norm(g: FiniteGroupoid, xi) -> float:
    """max over units of the weighted l2 norm of the range-fiber restriction."""
    xi = arrow_function(g, xi)
    mass = g.weights * np.abs(xi) ** 2
    return float(np.sqrt(max(mass[t].sum() for t in g.r_fibers)))


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
    out = np.zeros_like(op)
    for t in g.r_fibers:
        w = g.weights[t]
        block = op[np.ix_(t, t)]
        out[np.ix_(t, t)] = (block.conj().T * w[None, :]) / w[:, None]
    return out


def operator_norm(g: FiniteGroupoid, op) -> float:
    """Exact operator norm for adjointable (block diagonal) operators.

    Per block, the spectral norm in the weighted fiber metric.
    """
    op = np.asarray(op, dtype=complex)
    if not is_adjointable(g, op):
        raise ValueError("exact operator norms are only computed blockwise")
    return _block_norm(g, unit_blocks(g, op))


def _block_norm(g: FiniteGroupoid, blocks) -> float:
    best = 0.0
    for t, block in zip(g.r_fibers, blocks):
        rw = np.sqrt(g.weights[t])
        tilted = block * (rw[:, None] / rw[None, :])
        if tilted.size:
            best = max(best, float(np.linalg.norm(tilted, 2)))
    return best


def _right_op_blocks(g: FiniteGroupoid, f) -> list[np.ndarray]:
    """unit_blocks(g, right_op(g, f)), gathered from the composable pairs.

    The entries of the arrows x of a range fiber come x-ascending, t ascending
    within each x, so each x's segment is one row of its fiber's block.
    """
    f = arrow_function(g, f)
    _, t, y, starts = g.composable_pairs
    values = g.weights[t] * f[y]
    return [values[starts[fiber][:, None] + np.arange(fiber.size)] for fiber in g.r_fibers]


def reduced_norm(g: FiniteGroupoid, f) -> float:
    """C*-norm of f: the largest spectral norm of a unit block of right convolution."""
    return _block_norm(g, _right_op_blocks(g, f))


def operator_norm_bounds(
    g: FiniteGroupoid, op, probes: int = 64, seed: int = 0
) -> tuple[float, float]:
    """Certified (lower, upper) bounds for the section-norm operator norm.

    The max-of-fiber norm of a general operator is not a spectral quantity;
    the upper bound sums weighted spectral norms of the fiber-to-fiber blocks
    along each output fiber, the lower bound comes from random probing.  Both
    collapse to the exact value for block diagonal operators.
    """
    op = np.asarray(op, dtype=complex)
    rw = [np.sqrt(g.weights[t]) for t in g.r_fibers]
    upper = 0.0
    for u, tu in enumerate(g.r_fibers):
        row = 0.0
        for v, tv in enumerate(g.r_fibers):
            block = op[np.ix_(tu, tv)] * (rw[u][:, None] / rw[v][None, :])
            if block.size:
                sigma = float(np.linalg.norm(block, 2))
                row += sigma
        upper = max(upper, row)
    rng = np.random.default_rng(seed)
    lower = 0.0
    for _ in range(probes):
        xi = rng.standard_normal(g.n_arrows) + 1j * rng.standard_normal(g.n_arrows)
        nx = section_norm(g, xi)
        if nx > 0:
            lower = max(lower, section_norm(g, op @ xi) / nx)
    return lower, upper


def right_delta_ops(g: FiniteGroupoid) -> list[np.ndarray]:
    return [right_op(g, delta(g, x)) for x in range(g.n_arrows)]


def left_delta_ops(g: FiniteGroupoid) -> list[np.ndarray]:
    return [left_op(g, delta(g, x)) for x in range(g.n_arrows)]


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


def commutant(generators, dim: int, tol: float = RANK_TOL) -> list[np.ndarray]:
    """Basis of {T : TA = AT for every generator A}, by null-space extraction.

    With no generators this is the full matrix space on ``dim`` coordinates.
    """
    gens = [np.asarray(a, dtype=complex) for a in generators]
    if not gens:
        return [m.reshape(dim, dim) for m in np.eye(dim * dim, dtype=complex)]
    eye = np.eye(dim, dtype=complex)
    rows = []
    for a in gens:
        rows.append(np.kron(eye, a) - np.kron(a.T, eye))
    basis = nullspace(np.vstack(rows), tol)
    return [v.reshape(dim, dim) for v in basis]


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
    """Basis of the commutant of all right convolution operators."""
    return commutant(right_delta_ops(g), g.n_arrows)


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
    """Largest commutator entry of op against the right convolution generators."""
    op = np.asarray(op, dtype=complex)
    worst = 0.0
    for a in right_delta_ops(g):
        worst = max(worst, float(np.abs(op @ a - a @ op).max(initial=0.0)))
    return worst


def operator_to_module_map(g: FiniteGroupoid, op, tol: float = 1e-9) -> ModuleMap:
    """Right module map on arrow functions induced by a commutant operator.

    Sends f to conj(op(f*)) restricted to the unit arrows.  Requires op to
    commute with every right convolution operator (checked to ``tol``).
    """
    op = np.asarray(op, dtype=complex)
    scale = max(1.0, float(np.abs(op).max(initial=0.0)))
    defect = vn_commutation_defect(g, op)
    if defect > tol * scale:
        raise ValueError(
            f"operator does not commute with right convolutions (defect {defect:.3e})"
        )
    cols = []
    for x in range(g.n_arrows):
        image = np.conj(op @ star(g, delta(g, x)))
        cols.append(image[g.unit_arrows])
    return ModuleMap(matrix=np.stack(cols, axis=1), side="right")


def apply_operator_identity_check(g: FiniteGroupoid, op, f, h) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the pairing identity conj(op(f*h~)) on units vs <op f, h>."""
    lhs = np.conj((op @ convolve(g, f, star(g, h))))[g.unit_arrows]
    rhs = d_inner(g, op @ arrow_function(g, f), h)
    return lhs, rhs
