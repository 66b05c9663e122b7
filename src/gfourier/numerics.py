"""Stacked spectra of orbit-base matrices on their isotropy blocks, spans and null spaces."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .groupoid import IsotropyBlocks

RANK_TOL = 1e-9


def block_spectra(stack: np.ndarray, blocks: tuple[IsotropyBlocks, ...], how: str):
    """``np.linalg.eigh`` or the singular values of ``svd`` of a (k, m, m)
    stack of orbit-base matrices, each split into its isotropy blocks.

    Row i of the stack is the matrix of base i of its fiber class, and
    ``blocks`` are the class's ``FiniteGroupoid.isotropy_blocks``: every
    matrix must commute with the isotropy translations of its base fiber, so
    that F^H M F is block diagonal.  One stacked product M F serves every base of a
    layout.  A 1x1 block is the diagonal entry of F^H M F, its own eigenvalue
    (its real part) or singular value (its modulus), with no LAPACK call;
    larger blocks are cut from F^H M F and decomposed one stacked call per
    size.  Eigenvectors come back through F: the block's columns of F times
    the block's eigenvectors.  A base with no unitary (trivial isotropy: one
    block) is decomposed whole.  Eigenvalues come ascending and singular
    values descending, as numpy gives them; ``how`` = "eigh" returns
    (values, vectors), "svd" the values.  Where a product overflows
    (entries near the largest float), the stack is decomposed whole, as
    LAPACK scales its input.
    """
    if not blocks:
        return _whole(stack, how)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _split_spectra(stack, blocks, how)
    except (FloatingPointError, np.linalg.LinAlgError):
        pass
    return _whole(stack, how)


def _split_spectra(stack: np.ndarray, blocks: tuple[IsotropyBlocks, ...], how: str):
    """``block_spectra`` through the blocks, for a nonempty ``blocks``."""
    k, m = stack.shape[0], stack.shape[-1]
    vals = np.empty((k, m))
    vecs = np.empty((k, m, m), dtype=complex) if how == "eigh" else None
    for layout in blocks:
        rows = layout.bases
        f = layout.unitary
        fh = f.conj()
        mf = (stack if rows.size == k else stack[rows]) @ f
        product = None
        lo = 0
        for size, n in layout.runs:
            hi = lo + size * n
            if size == 1:
                diagonal = (fh[:, :, lo:hi] * mf[:, :, lo:hi]).sum(axis=1)
                vals[rows, lo:hi] = np.abs(diagonal) if vecs is None else diagonal.real
                if vecs is not None:
                    vecs[rows, :, lo:hi] = f[:, :, lo:hi]
                lo = hi
                continue
            if product is None:
                product = fh.swapaxes(1, 2) @ mf
            at = np.arange(lo, hi).reshape(n, size)
            block = product[:, at[:, :, None], at[:, None, :]]
            if vecs is None:
                vals[rows, lo:hi] = np.linalg.svd(block, compute_uv=False).reshape(-1, hi - lo)
            else:
                w, v = np.linalg.eigh(block)
                vals[rows, lo:hi] = w.reshape(-1, hi - lo)
                # (rows, n, m, size): the columns of F of each block, times its eigenvectors
                vecs[rows, :, lo:hi] = (f[:, :, at].transpose(0, 2, 1, 3) @ v).transpose(0, 2, 1, 3).reshape(
                    -1, m, hi - lo)
            lo = hi
    if sum(layout.bases.size for layout in blocks) < k:
        whole = np.ones(k, dtype=bool)
        for layout in blocks:
            whole[layout.bases] = False
        got = _whole(stack[whole], how)
        if vecs is None:
            vals[whole] = got
        else:
            vals[whole], vecs[whole] = got
    if vecs is None:
        return -np.sort(-vals, axis=1)
    order = vals.argsort(axis=1)
    at = np.arange(k)[:, None]
    return vals[at, order], vecs.swapaxes(1, 2)[at, order].swapaxes(1, 2)


def _whole(stack: np.ndarray, how: str):
    return np.linalg.svd(stack, compute_uv=False) if how == "svd" else np.linalg.eigh(stack)


def orthonormal_span(vectors, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of the span of the given row vectors."""
    a = np.asarray(vectors, dtype=complex)
    if a.size == 0:
        return np.zeros((0, a.shape[-1] if a.ndim == 2 else 0), dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > tol * (s[0] if s.size and s[0] > 0 else 1.0)
    return vh[keep]


def nullspace(a, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of the right null space of a."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    # a tall stack only needs the economy decomposition for all of V
    full = a.shape[0] < a.shape[1]
    u, s, vh = np.linalg.svd(a, full_matrices=full)
    rank = int(np.sum(s > tol * (s[0] if s.size and s[0] > 0 else 1.0)))
    return vh[rank:].conj()
