"""Stacked spectra of orbit-base matrices on their isotropy blocks, spans and null spaces."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .groupoid import FiberClass, FiniteGroupoid, IsotropyBlocks

RANK_TOL = 1e-9


def base_paths(g: FiniteGroupoid) -> Iterator[tuple[FiberClass, tuple[IsotropyBlocks, ...], bool]]:
    """The orbit bases of every fiber class of g by decomposition path, as
    (class, blocks, row) triples, a class's bases in at most two of them.

    A base whose isotropy layout is all 1x1 (``IsotropyBlocks.runs`` is
    ((1, m),): abelian H, an orbit of one unit) takes the row path
    (``row_spectra``, row true): the class of such bases and their one
    layout.  The other bases take ``block_spectra`` with their layouts, which
    decomposes them whole or split.  A class with bases on both paths is cut
    by ``FiberClass.select``, its layouts renumbered to the part they split.
    """
    for c, blocks in zip(g.fiber_classes, g.isotropy_blocks):
        m = c.arrows.shape[1]
        row = next((layout for layout in blocks if layout.runs == ((1, m),)), None)
        if row is None or row.bases.size == c.bases.size:
            yield c, blocks, row is not None
            continue
        rest = np.setdiff1d(np.arange(c.bases.size), row.bases)
        yield c.select(row.bases), (replace(row, bases=np.arange(row.bases.size)),), True
        yield c.select(rest), tuple(replace(layout, bases=np.searchsorted(rest, layout.bases))
                                    for layout in blocks if layout is not row), False


def row_spectra(rows: np.ndarray, unitary: np.ndarray, homes: np.ndarray) -> np.ndarray:
    """The eigenvalues of base matrices M that the columns of F = ``unitary``
    diagonalize (each its own 1x1 block), from their rows at the unit arrows.

    Row i of ``rows`` is row ``homes[i]`` of M_i.  As M F = F diag(lambda),
    lambda_j = (M[home] @ F[:, j]) / F[home, j], where |F[home, j]| =
    1/sqrt(m): one m-vector times F per base, with no LAPACK call and no
    m x m matrix.  The eigenvalues come in the column order of F, and F's
    columns are the eigenvectors; a Hermitian M has them real to rounding.
    """
    return (rows[:, None, :] @ unitary)[:, 0] / unitary[np.arange(homes.size), homes]


def block_spectra(stack: np.ndarray, blocks: tuple[IsotropyBlocks, ...], how: str):
    """``np.linalg.eigh`` or the singular values of ``svd`` of a (k, m, m)
    stack of orbit-base matrices, whole or split into their isotropy blocks.

    Row i of the stack is the matrix of base i, and ``blocks`` are the
    layouts of its bases (``FiniteGroupoid.isotropy_blocks``, through
    ``base_paths``): every matrix must commute with the isotropy translations
    of its base fiber, so that F^H M F is block diagonal.  When some base has
    trivial isotropy (one block, no layout) the stack is decomposed whole, in
    one stacked call.  Otherwise one stacked product M F serves every base of
    a layout: a 1x1 block is the diagonal entry of F^H M F, its own
    eigenvalue (its real part) or singular value (its modulus), with no
    LAPACK call; larger blocks are cut from F^H M F and decomposed one
    stacked call per size.  Eigenvectors come back through F: the block's
    columns of F times the block's eigenvectors.  ``how`` = "eigh" returns
    (values, vectors), "svd" the values, in no particular order: the
    eigenvalue in column j goes with the eigenvector in column j.  Where a
    product overflows (entries near the largest float), the stack is
    decomposed whole, as LAPACK scales its input.
    """
    if sum(layout.bases.size for layout in blocks) < stack.shape[0]:
        return _whole(stack, how)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _split_spectra(stack, blocks, how)
    except (FloatingPointError, np.linalg.LinAlgError):
        pass
    return _whole(stack, how)


def _split_spectra(stack: np.ndarray, blocks: tuple[IsotropyBlocks, ...], how: str):
    """``block_spectra`` through the blocks, whose layouts hold every base of the stack."""
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
    return vals if vecs is None else (vals, vecs)


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
