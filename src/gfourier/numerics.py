"""Spectra of orbit-base matrices on the row path, spans and null spaces."""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .groupoid import FiberClass, FiniteGroupoid

RANK_TOL = 1e-9


def base_paths(g: FiniteGroupoid) -> Iterator[tuple[FiberClass, np.ndarray | None]]:
    """The orbit bases of every fiber class of g by decomposition path, as
    (class, unitaries) pairs, a class's bases in at most two of them.

    A base of a one-unit orbit with abelian, nontrivial isotropy takes the
    row path (``row_spectra``): the class of such bases comes with their
    unitaries F_b (``FiniteGroupoid.isotropy_blocks``).  The other bases come
    with None and are decomposed whole, one stacked ``eigh`` or ``svd`` per
    part.  A class with bases on both paths is cut by ``FiberClass.select``.
    """
    for c, row in zip(g.fiber_classes, g.isotropy_blocks):
        if row is None:
            yield c, None
            continue
        bases, unitaries = row
        yield (c if bases.size == c.bases.size else c.select(bases)), unitaries
        if bases.size < c.bases.size:
            yield c.select(np.setdiff1d(np.arange(c.bases.size), bases)), None


def row_spectra(rows: np.ndarray, unitary: np.ndarray, homes: np.ndarray) -> np.ndarray:
    """The eigenvalues of base matrices M that the columns of F = ``unitary``
    diagonalize, from their rows at the unit arrows.

    Row i of ``rows`` is row ``homes[i]`` of M_i.  As M F = F diag(lambda),
    lambda_j = (M[home] @ F[:, j]) / F[home, j], where |F[home, j]| =
    1/sqrt(m): one m-vector times F per base, with no LAPACK call and no
    m x m matrix.  The eigenvalues come in the column order of F, and F's
    columns are the eigenvectors; a Hermitian M has them real to rounding.
    """
    return (rows[:, None, :] @ unitary)[:, 0] / unitary[np.arange(homes.size), homes]


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
