"""Positive definiteness, bundle coefficients, and GNS reconstruction.

A function on arrows is positive definite when every unit's Gram matrix
phi(inverse(x) y), indexed by the range fiber, is positive semidefinite.  The
Haar-integral criterion uses the weighted kernel instead, which is congruent
to the Gram matrix.  All three verdicts use one threshold per unit and decide
it exactly: the eigenvalue test by ``eigh``, the point-set and integral tests
by the inertia of an LDL^H factorization (Sylvester's law of inertia).  Every
"not positive definite" verdict carries a witness vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import arrow_function, convolve, star
from .groupoid import FiniteGroupoid
from .numerics import hermitian_eigen, hermitian_sqrt
from .regular import _right_op_blocks

PSD_TOL = 1e-9


@dataclass(frozen=True)
class PdVerdict:
    """Outcome of a positive-definiteness test, with a witness on failure.

    ``vector`` lives on the range fiber of ``unit`` and makes the criterion's
    form (``quadratic_form``, or ``integral_form`` for the integral criterion)
    negative or non-real when ``is_pd`` is false; ``value`` is that form.
    """

    is_pd: bool
    unit: int | None = None
    vector: np.ndarray | None = None
    value: complex | None = None

    def __bool__(self) -> bool:
        return self.is_pd


def gram_matrix(g: FiniteGroupoid, phi, u: int) -> np.ndarray:
    """Gram matrix phi(inverse(x) y) over the range fiber of unit u."""
    phi = arrow_function(g, phi)
    fiber = g.r_fibers[u]
    return phi[g.compose_table[np.ix_(g.inverse_of[fiber], fiber)]]


def _verdict(g: FiniteGroupoid, phi, tol: float, decide, weighted: bool = False) -> PdVerdict:
    """The per-unit loop of the three criteria, at delta = tol * max(1, max|Gram entry|).

    A Gram matrix that is not Hermitian to delta fails with a non-real form.
    Otherwise the form matrix k is the Gram matrix with shift delta or, when
    ``weighted``, the Haar kernel K = D conj(Gram) D with shift delta * w**2;
    K + delta D^2 is congruent to conj(Gram) + delta, so both have the same
    inertia.  ``decide(a)`` returns a direction v with v^H a v <= 0 when
    a = Hermitian part of k + diag(shift) is not positive definite, and then
    v^H k v <= -v^H diag(shift) v < 0.
    """
    phi = arrow_function(g, phi)
    for u in range(g.n_units):
        m = gram_matrix(g, phi, u)
        delta = tol * max(1.0, float(np.abs(m).max(initial=0.0)))
        defect = float(np.abs(m - m.conj().T).max(initial=0.0))
        shift = delta
        if weighted:
            m, shift = _integral_kernel(g, phi, u), delta * g.weights[g.r_fibers[u]] ** 2
        if defect > delta:
            vec = _non_hermitian_witness(m)
        else:
            a = (m + m.conj().T) / 2
            a.flat[:: a.shape[0] + 1] += shift
            vec = decide(a)
        if vec is not None:
            return PdVerdict(False, u, vec, complex(vec.conj() @ m @ vec))
    return PdVerdict(True)


def is_positive_definite(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> PdVerdict:
    """Gram-PSD criterion: every unit Gram has smallest eigenvalue >= -delta.

    The witness is the eigenvector of the smallest eigenvalue.
    """
    return _verdict(g, phi, tol, _lowest_eigenvector)


def _lowest_eigenvector(a: np.ndarray) -> np.ndarray | None:
    vals, vecs = np.linalg.eigh(a)
    return vecs[:, 0] if vals[0] < 0 else None


def _negative_direction(a: np.ndarray) -> np.ndarray | None:
    """A unit vector v with v^H a v <= 0 when the Hermitian a is not positive definite.

    Unpivoted LDL^H of a in plain numpy, with no LAPACK call; a is overwritten.
    By Sylvester's law of inertia a is positive definite exactly when every
    pivot is positive (then None).  At the first pivot d_k <= 0, the
    back-substituted v = L^{-H} e_k has v^H a v = d_k.
    """
    n = a.shape[0]
    low = np.eye(n, dtype=a.dtype)
    for k in range(n):
        pivot = a[k, k].real
        if pivot <= 0:
            v = np.zeros(n, dtype=complex)
            v[k] = 1.0
            for j in range(k - 1, -1, -1):
                v[j] = -(low[j + 1 : k + 1, j].conj() @ v[j + 1 : k + 1])
            return v / np.linalg.norm(v)
        low[k + 1 :, k] = a[k + 1 :, k] / pivot
        a[k + 1 :, k + 1 :] -= np.outer(low[k + 1 :, k], a[k, k + 1 :])
    return None


def _non_hermitian_witness(m: np.ndarray) -> np.ndarray:
    """A vector whose quadratic form against m is not real (conjugate-symmetry failure)."""
    v = np.zeros(m.shape[0], dtype=complex)
    diag = np.abs(m.diagonal().imag)
    if diag.max() > 0:
        v[int(diag.argmax())] = 1.0
        return v
    # e_p + phase e_q has form imaginary part Im(d) (phase 1) or Re(d) (phase i)
    defect = m - m.conj().T
    p, q = np.unravel_index(int(np.abs(defect).argmax()), defect.shape)
    v[p] = 1.0
    v[q] = 1.0 if abs(defect[p, q].imag) >= abs(defect[p, q].real) else 1j
    return v


def quadratic_form(g: FiniteGroupoid, phi, u: int, alpha) -> complex:
    """The point-set form sum over the fiber of conj(a_x) a_y phi(inverse(x) y)."""
    alpha = np.asarray(alpha, dtype=complex)
    m = gram_matrix(g, phi, u)
    return complex(alpha.conj() @ m @ alpha)


def pd_verdict_pointset(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> PdVerdict:
    """Point-set criterion decided by inertia: LDL^H of each Gram matrix plus delta.

    LAPACK-free, so it stays independent of the eigenvalue test.  The witness
    makes ``quadratic_form`` negative.
    """
    return _verdict(g, phi, tol, _negative_direction)


def integral_form(g: FiniteGroupoid, phi, u: int, f) -> complex:
    """Weighted double sum of phi(inverse(y) x) f(y) conj(f(x)) over the fiber of u."""
    f = np.asarray(f, dtype=complex)
    return complex(f.conj() @ _integral_kernel(g, phi, u) @ f)


def pd_verdict_integral(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> PdVerdict:
    """Haar-integral criterion decided by inertia on the weighted kernel.

    LDL^H of each unit's kernel w(x) w(y) phi(inverse(y) x) plus delta * w**2.
    The witness is a test function on the fiber that makes ``integral_form``
    negative.
    """
    return _verdict(g, phi, tol, _negative_direction, weighted=True)


def _integral_kernel(g: FiniteGroupoid, phi, u: int) -> np.ndarray:
    """The weighted kernel w(x) w(y) phi(inverse(y) x) over the fiber of u."""
    w = g.weights[g.r_fibers[u]]
    return (w[:, None] * w[None, :]) * gram_matrix(g, phi, u).T


# ---------------------------------------------------------------------------
# bundles and coefficients


@dataclass(frozen=True)
class GHilbertBundle:
    """Finite-dimensional Hilbert fibers over units with arrow isometries.

    ``maps[x]`` is a complex matrix from the fiber at source(x) to the fiber
    at range(x); composable arrows multiply, inverses transpose-conjugate,
    and unit arrows map to identities (all checked by the test suites, not
    assumed here).
    """

    dims: tuple[int, ...]
    maps: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class BundleSection:
    vectors: tuple[np.ndarray, ...]


def trivial_bundle(g: FiniteGroupoid, dim: int = 1) -> GHilbertBundle:
    eye = np.eye(dim, dtype=complex)
    return GHilbertBundle(dims=(dim,) * g.n_units, maps=(eye,) * g.n_arrows)


def constant_section(g: FiniteGroupoid, bundle: GHilbertBundle, value=1.0) -> BundleSection:
    return BundleSection(tuple(np.full(d, value, dtype=complex) for d in bundle.dims))


def coefficient(g: FiniteGroupoid, bundle: GHilbertBundle, xi: BundleSection, eta: BundleSection) -> np.ndarray:
    """The arrow function <L_x xi(source x), eta(range x)>, conjugate linear in xi."""
    for name, sec in (("xi", xi), ("eta", eta)):
        for u, v in enumerate(sec.vectors):
            if v.shape != (bundle.dims[u],):
                raise ValueError(f"{name} has wrong dimension at unit {u}")
    out = np.empty(g.n_arrows, dtype=complex)
    for x in range(g.n_arrows):
        moved = bundle.maps[x] @ xi.vectors[int(g.source_of[x])]
        out[x] = moved.conj() @ eta.vectors[int(g.range_of[x])]
    return out


def gns_bundle(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> tuple[GHilbertBundle, BundleSection]:
    """Bundle and section reconstructing a positive definite phi as a coefficient.

    The fiber at u is functions-on-the-fiber modulo the null space of the
    semi-inner product with kernel w w phi(inverse(y) x); arrows act by left
    translation; the section is the class of the normalized unit point mass.
    Raises with the Gram witness when phi is not positive definite.
    """
    phi = arrow_function(g, phi)
    verdict = is_positive_definite(g, phi, tol)
    if not verdict:
        raise ValueError(
            f"not positive definite: unit {verdict.unit} has form value {verdict.value}"
        )
    # one eigh per unit: the kept eigenpairs (L, V) give the factor C = sqrt(L) V^H
    # with C^H C = kernel and its pseudo-inverse V / sqrt(L)
    factors: list[np.ndarray] = []
    pinvs: list[np.ndarray] = []
    for u in range(g.n_units):
        kernel = _integral_kernel(g, phi, u)
        vals, vecs = hermitian_eigen((kernel + kernel.conj().T) / 2)
        keep = vals > tol * (vals[0] if vals.size and vals[0] > 0 else 1.0)
        root = np.sqrt(vals[keep])
        factors.append(root[:, None] * vecs[:, keep].conj().T)
        pinvs.append(vecs[:, keep] / root[None, :])
    position = np.empty(g.n_arrows, dtype=int)
    for fiber in g.r_fibers:
        position[fiber] = np.arange(fiber.size)
    _, _, y, starts = g.composable_pairs
    maps = []
    for x in range(g.n_arrows):
        u, v = int(g.range_of[x]), int(g.source_of[x])
        # left translation by x sends inverse(x) t to t: row p of the translation
        # matrix picks the position of inverse(x) t for the p-th t of the fiber of u
        back = g.inverse_of[y[starts[x] : starts[x] + g.r_fibers[u].size]]
        maps.append(factors[u] @ pinvs[v][position[back]])
    vectors = []
    for u, e in enumerate(g.unit_arrows):
        vectors.append(factors[u][:, position[e]] / g.weights[e])
    bundle = GHilbertBundle(dims=tuple(c.shape[0] for c in factors), maps=tuple(maps))
    return bundle, BundleSection(tuple(vectors))


def regular_coefficient(g: FiniteGroupoid, f, h) -> np.ndarray:
    """Coefficient of the left-regular module: (f,h)(x) = sum w(t) conj(f(inverse(x) t)) h(t).

    Computed as the convolution of h with the involution of f.
    """
    return convolve(g, h, star(g, f))


def pd_to_section(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> np.ndarray:
    """A section xi with regular_coefficient(xi, xi) = phi, for positive definite phi.

    Uses the square root of right convolution by phi applied to the indicator
    of the units meeting the support of phi.  Only defined for counting-measure
    Haar systems (all weights 1).
    """
    phi = arrow_function(g, phi)
    if np.abs(g.weights - 1.0).max(initial=0.0) > 1e-12:
        raise ValueError("square-root section construction needs all Haar weights equal to 1")
    verdict = is_positive_definite(g, phi, tol)
    if not verdict:
        raise ValueError(
            f"not positive definite: unit {verdict.unit} has form value {verdict.value}"
        )
    support = np.abs(phi) > 1e-13 * max(1.0, float(np.abs(phi).max(initial=0.0)))
    marked = np.zeros(g.n_units, dtype=bool)
    marked[g.range_of[support]] = marked[g.source_of[support]] = True
    h = np.zeros(g.n_arrows, dtype=complex)
    h[g.unit_arrows[marked]] = 1.0
    xi = np.zeros(g.n_arrows, dtype=complex)
    for fiber, block in zip(g.r_fibers, _right_op_blocks(g, phi)):
        xi[fiber] = hermitian_sqrt(block, tol) @ h[fiber]
    return xi


def off_diagonal_embed(g: FiniteGroupoid, rho, phi, tau) -> np.ndarray:
    """Block embedding of (rho, phi; phi-involution, tau) on the product with the
    2-point pair groupoid, using the canonical product arrow indexing."""
    rho = arrow_function(g, rho)
    phi = arrow_function(g, phi)
    tau = arrow_function(g, tau)
    # product_arrow_id(x, i, j) = 4 x + 2 i + j
    return np.stack([rho, phi, star(g, phi), tau], axis=1).ravel()
