"""Dense Hermitian linear-algebra kernels shared by the norm and GNS machinery."""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-9


def hermitian_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and orthonormal eigenvectors of a Hermitian matrix.

    A stack of matrices (the last two axes) is decomposed in one call.  The
    input is symmetrized internally; each matrix must be Hermitian to 1e-12
    relative to its largest entry.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("need a square matrix")
    h = m.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    if np.any(np.abs(m - h).max(axis=(-2, -1), initial=0.0) > 1e-12 * scale):
        raise ValueError("matrix is not Hermitian")
    vals, vecs = np.linalg.eigh((m + h) / 2)
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def hermitian_sqrt(m, tol: float = 1e-9) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-tol*scale, 0) are clamped to 0.

    A stack of matrices (the last two axes) is handled in one call; the error
    names the smallest eigenvalue of the first matrix that is not PSD.
    """
    vals, vecs = hermitian_eigen(m)
    if vals.shape[-1]:
        scale = np.maximum(1.0, vals[..., 0])
        bad = vals[..., -1] < -tol * scale
        if bad.any():
            low = vals[..., -1][bad][0]
            raise ValueError(f"matrix is not positive semidefinite (eigenvalue {low:.3e})")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


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
