"""Positive definiteness, bundle coefficients, and GNS reconstruction.

A function on arrows is positive definite when every unit's Gram matrix
phi(inverse(x) y), indexed by the range fiber, is positive semidefinite.
Weighted Haar variants of the criterion are congruent to this one, so the
unweighted Gram test is used everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import arrow_function, convolve, star
from .groupoid import FiniteGroupoid
from .numerics import hermitian_sqrt, rank_factor
from .regular import _right_op_blocks

PSD_TOL = 1e-9


@dataclass(frozen=True)
class PdVerdict:
    """Outcome of a positive-definiteness test, with a witness on failure.

    ``vector`` lives on the range fiber of ``unit`` and makes the quadratic
    form negative (or non-real) when ``is_pd`` is false.
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


def is_positive_definite(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> PdVerdict:
    """Gram-PSD criterion: every unit Gram has smallest eigenvalue >= -tol*scale."""
    phi = arrow_function(g, phi)
    for u in range(g.n_units):
        m = gram_matrix(g, phi, u)
        herm_defect = float(np.abs(m - m.conj().T).max(initial=0.0))
        scale = max(1.0, float(np.abs(m).max(initial=0.0)))
        if herm_defect > tol * scale:
            vec, val = _non_hermitian_witness(m)
            return PdVerdict(False, u, vec, val)
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
        if vals[0] < -tol * scale:
            return PdVerdict(False, u, vecs[:, 0], complex(vals[0]))
    return PdVerdict(True)


def _non_hermitian_witness(m: np.ndarray) -> tuple[np.ndarray, complex]:
    """A vector whose quadratic form against m is not real (conjugate-symmetry failure)."""
    n = m.shape[0]
    for p in range(n):
        if abs(m[p, p].imag) > 0:
            v = np.zeros(n, dtype=complex)
            v[p] = 1.0
            return v, complex(m[p, p])
    defect = np.abs(m - m.conj().T)
    p, q = np.unravel_index(int(defect.argmax()), defect.shape)
    for phase in (1.0, 1j):
        v = np.zeros(n, dtype=complex)
        v[p] = 1.0
        v[q] = phase
        val = complex(v.conj() @ m @ v)
        if abs(val.imag) >= abs(defect[p, q]) / 4:
            return v, val
    v = np.zeros(n, dtype=complex)
    v[p], v[q] = 1.0, 1.0
    return v, complex(v.conj() @ m @ v)


def quadratic_form(g: FiniteGroupoid, phi, u: int, alpha) -> complex:
    """The point-set form sum over the fiber of conj(a_x) a_y phi(inverse(x) y)."""
    alpha = np.asarray(alpha, dtype=complex)
    m = gram_matrix(g, phi, u)
    return complex(alpha.conj() @ m @ alpha)


def pd_verdict_pointset(g: FiniteGroupoid, phi, tol: float = PSD_TOL, iters: int = 1200) -> PdVerdict:
    """Point-set criterion decided by shifted power iteration, LAPACK-free.

    Minimizes the quadratic form over unit vectors on each fiber by power
    iteration on (c - form); agrees with the Gram eigenvalue test away from
    the tolerance boundary.
    """
    phi = arrow_function(g, phi)
    for u in range(g.n_units):
        m = gram_matrix(g, phi, u)
        scale = max(1.0, float(np.abs(m).max(initial=0.0)))
        if float(np.abs(m - m.conj().T).max(initial=0.0)) > tol * scale:
            vec, val = _non_hermitian_witness(m)
            return PdVerdict(False, u, vec, val)
        n = m.shape[0]
        c = float(np.abs(m).sum(axis=1).max(initial=0.0)) + 1.0
        v = np.ones(n, dtype=complex) + 0.01 * np.arange(n)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = c * v - m @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            v = w / nw
        lam = float((v.conj() @ m @ v).real)
        if lam < -tol * max(1.0, c):
            return PdVerdict(False, u, v, complex(lam))
    return PdVerdict(True)


def integral_form(g: FiniteGroupoid, phi, u: int, f) -> complex:
    """Weighted double sum of phi(inverse(y) x) f(y) conj(f(x)) over the fiber of u."""
    f = np.asarray(f, dtype=complex)
    return complex(f.conj() @ _integral_kernel(g, phi, u) @ f)


def pd_verdict_integral(
    g: FiniteGroupoid, phi, tol: float = PSD_TOL, n_probes: int = 50, seed: int = 0
) -> PdVerdict:
    """Haar-integral criterion probed on random test functions plus a descent polish.

    Each probe evaluates the double sum as a form in the weighted Gram matrix.
    The descent step improves the worst probe by iterating the integral
    kernel, so a strictly negative direction is found whenever one exists (up
    to the tolerance band).
    """
    phi = arrow_function(g, phi)
    rng = np.random.default_rng(seed)
    for u in range(g.n_units):
        fiber = g.r_fibers[u]
        n = fiber.shape[0]
        best_val = np.inf
        best_f = None
        for _ in range(n_probes):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f /= np.linalg.norm(f)
            val = integral_form(g, phi, u, f)
            if abs(val.imag) > tol * max(1.0, abs(val)):
                return PdVerdict(False, u, f, val)
            if val.real < best_val:
                best_val, best_f = val.real, f
        f = best_f
        kernel = _integral_kernel(g, phi, u)
        c = float(np.abs(kernel).sum(axis=1).max(initial=0.0)) + 1.0
        for _ in range(800):
            w = c * f - kernel.conj().T @ f
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            f = w / nw
        val = integral_form(g, phi, u, f)
        if abs(val.imag) > tol * c or val.real < -tol * c:
            return PdVerdict(False, u, f, val)
    return PdVerdict(True)


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
    factors: list[np.ndarray] = []
    pinvs: list[np.ndarray] = []
    for u in range(g.n_units):
        kernel = _integral_kernel(g, phi, u)
        sym = (kernel + kernel.conj().T) / 2
        c = rank_factor(sym, tol)
        factors.append(c)
        pinvs.append(np.linalg.pinv(c))
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
