"""Dense Hermitian linear-algebra kernels shared by the norm and GNS machinery."""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-9


def hermitian_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and orthonormal eigenvectors of a Hermitian matrix.

    The input is symmetrized internally; it must be Hermitian to 1e-12
    relative to its largest entry.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.conj().T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def hermitian_sqrt(m, tol: float = 1e-9) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-tol*scale, 0) are clamped to 0."""
    vals, vecs = hermitian_eigen(m)
    scale = max(1.0, float(vals[0]) if vals.size else 1.0)
    if vals.size and vals[-1] < -tol * scale:
        raise ValueError(f"matrix is not positive semidefinite (eigenvalue {vals[-1]:.3e})")
    clamped = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(clamped)) @ vecs.conj().T


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
