"""Positive definiteness, bundle coefficients, and GNS reconstruction.

A function on arrows is positive definite when every unit's Gram matrix
phi(inverse(x) y), indexed by the range fiber, is positive semidefinite.  The
Haar-integral criterion uses the weighted kernel instead, which is congruent
to the Gram matrix.  All three verdicts use one threshold per unit and decide
it exactly: the eigenvalue test by its eigenvalues, the point-set and
integral tests by the inertia of an LDL^H factorization (Sylvester's law of
inertia).  Every "not positive definite" verdict carries a witness vector.

The units are decided, factored and square-rooted once per orbit, at the
orbit's smallest unit (``FiniteGroupoid.orbit_index``): every other unit's
Gram matrix, weighted kernel and right convolution block is the base's with
rows and columns permuted alike.  That rests on the groupoid axioms and on
left-invariant weights, as the one Schur block per orbit base of
``gfourier.norms`` does; with weights that are not left
invariant the index makes every unit its own base.  The bases of a fiber class of
``FiniteGroupoid.fiber_classes`` are one gather.  Each base matrix commutes
with the translations of its fiber by the base's isotropy group H, so the
eigenvalue verdict, the GNS factor and the square root decompose it through
the unitary of ``FiniteGroupoid.isotropy_blocks`` into sum_pi d_pi blocks of
size d_pi |X|, one stacked call per block size and none for 1x1 blocks
(``gfourier.numerics.block_spectra``); a base with trivial isotropy, as on a
pair groupoid, is one block and is decomposed whole.  The LDL^H criteria
factor the matrices whole, with no LAPACK call, so they stay an independent
check of that path.  The GNS bundle is induced from each base's isotropy
group, with one map per isotropy element.  A base kernel of full rank
commutes with the translations of its isotropy group, and so does its
Hermitian square root, so with that root as the factor every map of the
orbit is the 0/1 translation matrix itself, written without a product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import arrow_function, convolve, star
from .groupoid import FiniteGroupoid, IsotropyBlocks
from .numerics import block_spectra, hermitian_eigen, hermitian_sqrt, select_blocks
from .regular import _right_op_blocks

PSD_TOL = 1e-9
# matrix entries that ``gns_bundle`` (translation matrices, gathered rows of a
# pseudo-inverse) and ``coefficient`` (moved vectors read by their arrows) stack
# at once: 64 KB of complex values, below the size from which the allocator
# maps fresh pages, whose faults would cost more than the stacked work saves
STACK_ENTRIES = 1 << 12


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
    _, _, y, starts = g.composable_pairs
    fiber = g.r_fibers[u]
    return phi[y[starts[fiber] + np.arange(fiber.size)[:, None]]]


def _verdict(g: FiniteGroupoid, phi, tol: float, decide, weighted: bool = False) -> PdVerdict:
    """The three criteria, decided for every unit at delta = tol * max|Gram entry|.

    The threshold is relative to each unit's own entries, with no absolute
    floor, so a verdict does not change when phi is scaled; a unit whose Gram
    matrix is zero passes.  A Gram matrix that is not Hermitian to delta
    fails with a non-real form.  Otherwise the form matrix k is the Gram
    matrix with shift delta or, when ``weighted``, the Haar kernel
    K = D conj(Gram) D with shift delta * w**2; K + delta D^2 is congruent to
    conj(Gram) + delta, so both have the same inertia.  ``decide(a)`` takes a
    stack of a = Hermitian part of k + diag(shift) and returns the mask of the
    matrices that are not positive definite, with a function giving, for row
    i of the stack, a direction v with v^H a v <= 0; then
    v^H k v <= -v^H diag(shift) v < 0.  The witness is taken at the first
    failing unit.

    Only the base of each orbit (``FiniteGroupoid.orbit_index``) is decided:
    the other units' Gram matrices, fiber weights and so their form matrices
    are permuted copies of the base's, by the groupoid axioms and the left
    invariance of the weights.  A unit fails exactly when its base does, and
    the base is the orbit's smallest unit, so the first failing unit is the
    base of the first failing orbit.  The bases are stacked per fiber class,
    and a stack whose bases all come after a failure already found is skipped.
    """
    phi = arrow_function(g, phi)
    first = None
    for c, o, blocks in zip(g.fiber_classes, g.orbit_index, g.isotropy_blocks):
        units = c.units[o.rows]
        if first is not None and units[0] > first[0]:
            continue
        m = phi[c.gram[o.rows]]
        mh = m.conj().swapaxes(1, 2)
        scale = np.abs(m).max(axis=(1, 2))
        delta = tol * scale
        non_hermitian = np.abs(m - mh).max(axis=(1, 2)) > delta
        # a zero Gram matrix is PSD, and any positive shift says so
        shift = np.where(scale > 0, delta, 1.0)[:, None]
        if weighted:
            w = g.weights[c.arrows[o.rows]]
            m, shift = _integral_kernels(w, m), shift * w**2
            mh = m.conj().swapaxes(1, 2)
        a = (m + mh) / 2
        diagonal = np.arange(m.shape[1])
        a[:, diagonal, diagonal] += shift
        # only the bases before the first non-Hermitian one can fail first
        cut = int(np.argmax(non_hermitian)) if non_hermitian.any() else units.size
        if cut < units.size:
            blocks = select_blocks(blocks, np.arange(cut))
        not_pd, direction = decide(a[:cut], blocks) if cut else ([], None)
        i = int(np.argmax(not_pd)) if np.any(not_pd) else cut
        if i < units.size and (first is None or units[i] < first[0]):
            vec = direction(i) if i < cut else _non_hermitian_witness(m[i])
            first = (int(units[i]), vec, m[i])
    if first is None:
        return PdVerdict(True)
    u, vec, m = first
    return PdVerdict(False, u, vec, complex(vec.conj() @ m @ vec))


def is_positive_definite(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> PdVerdict:
    """Gram-PSD criterion: every unit Gram has smallest eigenvalue >= -delta.

    The eigenvalues are those of the isotropy blocks of the orbit bases
    (``FiniteGroupoid.isotropy_blocks``).  The witness is an eigenvector of
    the smallest eigenvalue: F_b times the eigenvector of the block that holds
    it.
    """
    return _verdict(g, phi, tol, _lowest_eigenvalues)


def _lowest_eigenvalues(a: np.ndarray, blocks: tuple[IsotropyBlocks, ...]):
    """Decide the stack by its eigenvalues, through the isotropy blocks of its
    bases (``block_spectra``); only a witness needs eigenvectors, those of its
    base alone, where it is the lowest eigenvector of one block mapped back."""
    return (block_spectra(a, blocks, "eigvalsh")[:, 0] < 0,
            lambda i: block_spectra(a[i : i + 1], select_blocks(blocks, [i]), "eigh")[1][0, :, 0])


def _negative_directions(a: np.ndarray, _blocks=()):
    """Unpivoted LDL^H of a stack of Hermitian matrices in plain numpy; a is overwritten.

    No LAPACK call, and no isotropy blocks: the matrices are factored whole.
    By Sylvester's law of inertia a matrix is positive definite exactly when
    every pivot is positive.  Returns the mask of the
    matrices with a pivot d_k <= 0 and a function giving, for row i of the
    stack, the unit vector v = L^{-H} e_k of its first such pivot, which has
    v^H a v = d_k.
    """
    n, m, _ = a.shape
    low = np.zeros_like(a)
    pivots = np.empty((n, m))
    # a matrix keeps eliminating past its first pivot <= 0; what follows, inf
    # or nan included, is never read.  The real and imaginary parts are
    # divided by the real pivot apiece: numpy's complex division by a
    # subnormal pivot overflows.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(m):
            pivots[:, k] = a[:, k, k].real
            low.real[:, k + 1 :, k] = a.real[:, k + 1 :, k] / pivots[:, k, None]
            low.imag[:, k + 1 :, k] = a.imag[:, k + 1 :, k] / pivots[:, k, None]
            a[:, k + 1 :, k + 1 :] -= low[:, k + 1 :, k, None] * a[:, None, k, k + 1 :]
    failed = ~(pivots > 0)
    first = np.where(failed.any(axis=1), failed.argmax(axis=1), m)

    def direction(i: int) -> np.ndarray:
        k = first[i]
        v = np.zeros(m, dtype=complex)
        v[k] = 1.0
        for j in range(k - 1, -1, -1):
            v[j] = -(low[i, j + 1 : k + 1, j].conj() @ v[j + 1 : k + 1])
        return v / np.linalg.norm(v)

    return first < m, direction


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
    return _verdict(g, phi, tol, _negative_directions)


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
    return _verdict(g, phi, tol, _negative_directions, weighted=True)


def _integral_kernel(g: FiniteGroupoid, phi, u: int) -> np.ndarray:
    """The weighted kernel w(x) w(y) phi(inverse(y) x) over the fiber of u."""
    return _integral_kernels(g.weights[g.r_fibers[u]], gram_matrix(g, phi, u))


def _integral_kernels(w: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Weighted kernels from Gram matrices (last two axes) and fiber weights w."""
    return (w[..., :, None] * w[..., None, :]) * gram.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# bundles and coefficients


@dataclass(frozen=True)
class GHilbertBundle:
    """Finite-dimensional Hilbert fibers over units with arrow isometries.

    ``maps[x]`` is a complex or real matrix from the fiber at source(x) to the
    fiber at range(x); composable arrows multiply, inverses transpose-conjugate,
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
    """The arrow function <L_x xi(source x), eta(range x)>, conjugate linear in xi.

    Arrows that carry the same map object (``gns_bundle`` shares one per
    isotropy element) and the same source share the moved vector
    L_x xi(source x): each map is applied once, to the stacked vectors of its
    sources.  The object identity decides only which work is shared, never a
    value.  The inner products are taken in stacks of about ``STACK_ENTRIES``
    entries.
    """
    dims = np.asarray(bundle.dims, dtype=int)
    for name, sec in (("xi", xi), ("eta", eta)):
        u = _first_mismatch(list(map(np.shape, sec.vectors)), list(zip(bundle.dims)))
        if u is not None:
            raise ValueError(f"{name} has wrong dimension at unit {u}")
    rows, cols = dims[g.range_of], dims[g.source_of]
    x = _first_mismatch(list(map(np.shape, bundle.maps)), list(zip(rows.tolist(), cols.tolist())))
    if x is not None:
        raise ValueError(f"map of arrow {x} does not go from its source fiber to its range fiber")
    # each arrow is keyed by the first arrow that carries its map object; sorted
    # by that key, the (map, source) pairs of one map are consecutive
    first = {}
    holder = np.fromiter(map(first.setdefault, map(id, bundle.maps), range(g.n_arrows)),
                         dtype=int, count=g.n_arrows)
    pairs, which = np.unique(holder * g.n_units + g.source_of, return_inverse=True)
    pair_holder, pair_source = divmod(pairs, g.n_units)
    width = int(dims.max(initial=0))
    moving = _padded(xi, dims, width)
    onto = moving if eta is xi else _padded(eta, dims, width)
    moved = np.zeros((pairs.size, width), dtype=complex)
    firsts = list(first.values())
    bounds = np.searchsorted(pair_holder, firsts + [g.n_arrows]).tolist()
    for arrow, lo, hi in zip(firsts, bounds, bounds[1:]):
        a = bundle.maps[arrow]
        moved[lo:hi, : a.shape[0]] = moving[pair_source[lo:hi], : a.shape[1]] @ a.T
    out = np.empty(g.n_arrows, dtype=complex)
    for part in _stacks(np.arange(g.n_arrows), width):
        out[part] = np.sum(moved[which[part]].conj() * onto[g.range_of[part]], axis=1)
    return out


def _padded(section: BundleSection, dims: np.ndarray, width: int) -> np.ndarray:
    """The vectors of a section as the rows of one array, zero past each unit's dimension."""
    out = np.zeros((dims.size, width), dtype=complex)
    # a row-major mask takes the concatenated vectors in order
    out[dims[:, None] > np.arange(width)] = np.concatenate([np.zeros(0), *section.vectors])
    return out


def _groups(sizes: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(size, ids) for each distinct size, in ascending order."""
    return [(size, np.flatnonzero(sizes == size)) for size in sorted(set(sizes.tolist()))]


def _stacks(ids: np.ndarray, entries: int) -> list[np.ndarray]:
    """ids in consecutive parts of at most STACK_ENTRIES entries (at least one id
    each), at ``entries`` entries per id."""
    step = max(1, STACK_ENTRIES // max(1, entries))
    return [ids[i : i + step] for i in range(0, ids.size, step)]


def _first_mismatch(got: list, want: list) -> int | None:
    """The first index where two lists differ, or None when they are equal."""
    if got == want:
        return None
    return next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))


def gns_bundle(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> tuple[GHilbertBundle, BundleSection]:
    """Bundle and section reconstructing a positive definite phi as a coefficient.

    The fiber at u is functions-on-the-fiber modulo the null space of the
    semi-inner product with kernel w w phi(inverse(y) x); arrows act by left
    translation; the section is the class of the normalized unit point mass.
    Raises with the Gram witness when phi is not positive definite.

    The bundle is induced from the isotropy group of each orbit's base b
    (``FiniteGroupoid.orbit_index``).  The kernel of a unit u is the base's
    permuted by perm_u, so one eigen decomposition per orbit factors it as
    C_b^H C_b and C_u = C_b[:, perm_u] factors u's.  The verdict and that
    decomposition both run on the isotropy blocks of the base
    (``FiniteGroupoid.isotropy_blocks``): the eigenvectors are those of the
    blocks mapped back through F_b, with no call at all on 1x1 blocks.  With
    a_v the transport arrow from b to v, the map of an arrow x from s to t is
    then pi(h) = C_b T_h C_b^+ for the isotropy element h = inverse(a_t) x a_s,
    where T_h translates the base fiber by h; one map per isotropy element,
    shared read-only by every arrow that reaches it.  When K_b has full rank, C_b is its Hermitian square root
    V sqrt(L) V^H (one product per orbit), which commutes with every T_h, so
    pi(h) = T_h: the exact permutation matrix, gathered from the identity with
    no product.  On a pair groupoid every map is then the identity.  A
    rank-deficient orbit keeps C_b = sqrt(L) V^H and one product per element.
    The section at u is C_b[:, home_u] / w_u either way.
    """
    phi = arrow_function(g, phi)
    verdict = is_positive_definite(g, phi, tol)
    if not verdict:
        raise ValueError(
            f"not positive definite: unit {verdict.unit} has form value {verdict.value}"
        )
    dims = np.empty(g.n_units, dtype=int)
    row = np.empty(g.n_units, dtype=int)
    place = np.empty(g.n_arrows, dtype=int)
    maps = np.empty(g.n_arrows, dtype=object)
    vectors = np.empty(g.n_units, dtype=object)
    for c, o, blocks in zip(g.fiber_classes, g.orbit_index, g.isotropy_blocks):
        k, m = c.arrows.shape
        kernels = _integral_kernels(g.weights[c.arrows[o.rows]], phi[c.gram[o.rows]])
        # one decomposition per orbit, through its isotropy blocks: the kept
        # eigenpairs (L, V) of a base give the factor C = sqrt(L) V^H with
        # C^H C = kernel and its pseudo-inverse V / sqrt(L); the stacks hold
        # d >= rank columns, and an orbit of rank r only ever reads its first r
        vals, vecs = hermitian_eigen((kernels + kernels.conj().swapaxes(1, 2)) / 2, blocks)
        top = vals[:, :1]
        keep = vals > tol * np.where(top > 0, top, 1.0)
        rank = keep.sum(axis=1)
        d = rank.max()
        root = np.sqrt(np.where(keep, vals, 1.0))[:, :d]
        # C order keeps the gathered products below on BLAS
        factor = root[:, :, None] * np.ascontiguousarray(vecs[:, :, :d].conj().swapaxes(1, 2))
        pinv = vecs[:, :, :d] / root[:, None, :]
        # a full-rank orbit takes the Hermitian root V sqrt(L) V^H as its factor
        # (d = m exactly when some orbit has full rank)
        full = rank == m
        if d == m:
            np.copyto(factor, vecs @ factor, where=full[:, None, None])
        dims[c.units] = rank[o.orbit]
        row[c.units] = np.arange(k)
        place[c.arrows] = np.arange(m)
        xs = c.arrows.ravel()
        # translation by h sends inverse(h) y to y: row p of T_h picks the place
        # of inverse(h) y for the p-th arrow y of the base fiber; the place of
        # inverse(h) = inverse(a_s) inverse(x) a_t is read from the Gram ids of
        # t's fiber, where inverse(x) a_t lies
        t, s = np.repeat(np.arange(k), m), row[g.source_of[xs]]
        key = o.perm[s, place[c.gram[t, place[xs], o.transport[t]]]]
        elements, which = np.unique(o.orbit[t] * m + key, return_inverse=True)
        owner, key = divmod(elements, m)
        base = o.bases[owner]
        back = place[c.gram[base, place[g.inverse_of[c.arrows[base, key]]]]]
        shared = np.empty(owner.size, dtype=object)
        # real 0/1 entries: half the memory of complex ones, and exact
        identity = np.eye(m)
        for part in _stacks(np.flatnonzero(full[owner]), m * m):
            shared[part] = _read_only(identity[back[part]])
        # elsewhere pi(h) = C T_h C^+, one product per element
        for b in np.flatnonzero(~full):
            r = rank[b]
            inverse = pinv[b, :, :r]
            for part in _stacks(np.flatnonzero(owner == b), m * r):
                shared[part] = _read_only(factor[b, :r] @ inverse[back[part]])
        maps[xs] = shared[which]
        # the unit point mass of u sits at the place of inverse(a_u) in the base fiber
        at_units = factor[o.orbit, :, o.home] / g.unit_weights[c.units][:, None]
        for r, ids in _groups(rank[o.orbit]):
            vectors[c.units[ids]] = np.fromiter(at_units[ids, :r], dtype=object, count=ids.size)
    bundle = GHilbertBundle(dims=tuple(dims.tolist()), maps=tuple(maps))
    return bundle, BundleSection(tuple(vectors))


def _read_only(stack: np.ndarray) -> np.ndarray:
    """An object array of the matrices of a stack, as read-only views."""
    stack.flags.writeable = False
    return np.fromiter(stack, dtype=object, count=len(stack))


def regular_coefficient(g: FiniteGroupoid, f, h) -> np.ndarray:
    """Coefficient of the left-regular module: (f,h)(x) = sum w(t) conj(f(inverse(x) t)) h(t).

    Computed as the convolution of h with the involution of f.
    """
    return convolve(g, h, star(g, f))


def pd_to_section(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> np.ndarray:
    """A section xi with regular_coefficient(xi, xi) = phi, for positive definite phi.

    Uses the square root of right convolution by phi applied to the indicator
    of the units meeting the support of phi.  Only defined for counting-measure
    Haar systems (all weights 1).  A unit's block is its orbit base's permuted
    by perm_u (``FiniteGroupoid.orbit_index``), and so is its square root, so
    one ``hermitian_sqrt`` per orbit serves every unit (``OrbitClass.spread``).
    The root is taken through the isotropy blocks of the base
    (``FiniteGroupoid.isotropy_blocks``): V sqrt(L) V^H with V the blocks'
    eigenvectors mapped back through F_b.
    """
    phi = arrow_function(g, phi)
    if np.abs(g.weights - 1.0).max(initial=0.0) > 1e-12:
        raise ValueError("square-root section construction needs all Haar weights equal to 1")
    verdict = is_positive_definite(g, phi, tol)
    if not verdict:
        raise ValueError(
            f"not positive definite: unit {verdict.unit} has form value {verdict.value}"
        )
    support = np.abs(phi) > 1e-13 * float(np.abs(phi).max(initial=0.0))
    marked = np.zeros(g.n_units, dtype=bool)
    marked[g.range_of[support]] = marked[g.source_of[support]] = True
    xi = np.zeros(g.n_arrows, dtype=complex)
    rows = [o.rows for o in g.orbit_index]
    for c, o, blocks, right in zip(g.fiber_classes, g.orbit_index, g.isotropy_blocks,
                                   _right_op_blocks(g, phi, rows)):
        # the root at u applied to the point mass at its unit arrow: the column
        # of the base root at the place of inverse(a_u), permuted by perm_u
        root = hermitian_sqrt(right, tol, blocks)
        xi[c.arrows] = o.spread(root.swapaxes(1, 2)) * marked[c.units][:, None]
    return xi


def off_diagonal_embed(g: FiniteGroupoid, rho, phi, tau) -> np.ndarray:
    """Block embedding of (rho, phi; phi-involution, tau) on the product with the
    2-point pair groupoid, using the canonical product arrow indexing."""
    rho = arrow_function(g, rho)
    phi = arrow_function(g, phi)
    tau = arrow_function(g, tau)
    # product_arrow_id(x, i, j) = 4 x + 2 i + j
    return np.stack([rho, phi, star(g, phi), tau], axis=1).ravel()
