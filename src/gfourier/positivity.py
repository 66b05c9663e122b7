"""Positive definiteness, bundle coefficients, and GNS reconstruction.

A function on arrows is positive definite when every unit's Gram matrix
phi(inverse(x) y), indexed by the range fiber, is positive semidefinite.  The
Haar-integral criterion uses the weighted kernel instead, which is congruent
to the Gram matrix.  All three verdicts use one threshold per unit and decide
it exactly: the eigenvalue test by its eigenvalues, the point-set and
integral tests by the inertia of an LDL^H factorization (Sylvester's law of
inertia).  Every "not positive definite" verdict carries a witness vector.

The units are decided once per orbit, at its smallest unit (``bases`` of
``FiniteGroupoid.fiber_classes``), the bases of a fiber class in at most two
stacks: by the groupoid axioms and left-invariant weights, every other unit's
Gram matrix and weighted kernel is the base's with rows and columns permuted
alike.  A base Gram matrix commutes with the translations of its fiber by the
base's isotropy group, and the eigenvalue verdict takes each base on one of
two paths (``gfourier.numerics.base_paths``).  Row: on an orbit of one unit
with abelian isotropy H the Gram matrix is a group matrix that the cached
F_b of ``FiniteGroupoid.isotropy_blocks`` diagonalizes, and its eigenvalues
come from phi on the base fiber, its Gram row at the unit arrow, with no
block gathered (``row_spectra``).  Whole: the other bases of a fiber class
are decomposed in one stacked ``eigh``.  The GNS bundle and the square-root
section are factored from those eigenpairs.  The LDL^H criteria factor the
matrices whole, with no LAPACK call, so they stay an independent check of
the eigenvalue verdict.  The GNS bundle is induced from each base's
isotropy group (``FiberClass.translation``): a ``GHilbertBundle`` holds one
stack of distinct maps per shape and an index per arrow into it; on an orbit
of full rank every map is an isotropy translation, held as permutation rows
and applied by a gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import arrow_function, convolve, star
from .groupoid import FiniteGroupoid
from .numerics import base_paths, row_spectra

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
    _, _, y, starts = g.composable_pairs
    fiber = g.r_fibers[u]
    return phi[y[starts[fiber] + np.arange(fiber.size)[:, None]]]


def _verdict(g: FiniteGroupoid, phi, tol: float, decide) -> PdVerdict:
    """The three criteria, decided for every unit at delta = tol * max|Gram entry|.

    The threshold is relative to each unit's own entries, with no absolute
    floor, so a verdict does not change when phi is scaled; a unit whose Gram
    matrix is zero passes.  A Gram matrix that is not Hermitian to delta
    fails with a non-real form.  Otherwise the form matrix k is the Gram
    matrix with shift delta or, for the integral criterion, the Haar kernel
    K = D conj(Gram) D with shift delta * w**2; K + delta D^2 is congruent to
    conj(Gram) + delta, so both have the same inertia.  ``decide(g, c,
    unitaries, phi, tol)`` decides the orbit bases of one part of a fiber
    class (``gfourier.numerics.base_paths``) and returns the mask of those
    that fail and a function giving, for base i, the witness v and its form
    v^H k v: negative, as v^H a v <= 0 for a = Hermitian part of k +
    diag(shift) gives v^H k v <= -v^H diag(shift) v < 0, or not real.  The
    witness is taken at the first failing unit.

    Only the base of each orbit (``FiberClass.bases``) is decided:
    the other units' Gram matrices, fiber weights and so their form matrices
    are permuted copies of the base's, by the groupoid axioms and the left
    invariance of the weights.  A unit fails exactly when its base does, and
    the base is the orbit's smallest unit, so the first failing unit is the
    base of the first failing orbit.  The bases are decided a stack at a
    time, each stack whole, where the first base not Hermitian or not positive
    definite fails; a stack whose bases all come after a failure is skipped.
    """
    phi = arrow_function(g, phi)
    first = None
    for c, unitaries in base_paths(g):
        units = c.units[c.rows]
        if first is not None and units[0] > first[0]:
            continue
        fails, witness = decide(g, c, unitaries, phi, tol)
        i = int(np.argmax(fails))
        if fails[i] and (first is None or units[i] < first[0]):
            first = (int(units[i]), *witness(i))
    if first is None:
        return PdVerdict(True)
    return PdVerdict(False, *first)


def _forms(c, phi: np.ndarray, tol: float, w: np.ndarray | None = None):
    """The Gram matrices m of the orbit bases of c, the mask of those not
    Hermitian to delta, the Hermitian parts a of their form matrices plus the
    shift, and the shift; with fiber weights w the form matrices are the Haar
    kernels."""
    m = phi[c.gram[c.rows]]
    mh = m.conj().swapaxes(1, 2)
    scale = np.abs(m).max(axis=(1, 2))
    delta = tol * scale
    non_hermitian = np.abs(m - mh).max(axis=(1, 2)) > delta
    # a zero Gram matrix is PSD, and any positive shift says so
    shift = np.where(scale > 0, delta, 1.0)[:, None]
    if w is not None:
        m, shift = _integral_kernels(w, m), shift * w**2
        mh = m.conj().swapaxes(1, 2)
    a = (m + mh) / 2
    diagonal = np.arange(m.shape[1])
    a[:, diagonal, diagonal] += shift
    return m, non_hermitian, a, shift


def _form_witness(m: np.ndarray, vec: np.ndarray) -> tuple[np.ndarray, complex]:
    return vec, complex(vec.conj() @ m @ vec)


def is_positive_definite(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> PdVerdict:
    """Gram-PSD criterion: every unit Gram has smallest eigenvalue >= -delta.

    The eigenpairs of each orbit base come from one of two paths
    (``gfourier.numerics.base_paths``): the row path of
    ``gfourier.numerics.row_spectra`` for a one-unit orbit with abelian
    isotropy, and one stacked ``np.linalg.eigh`` of the whole Gram matrices
    for the others.  The witness is an eigenvector of the smallest
    eigenvalue.
    """
    return _verdict(g, phi, tol, _eigen_decider([]))


def _eigen_decider(spectra: list):
    """``is_positive_definite``'s decider, whose (class, eigenvalues,
    eigenvectors, shift) go to ``spectra``; a failing base's witness is its
    lowest eigenvector.

    On the row path the Gram row at the unit arrow of base b is phi on its
    fiber, G_b[home, q] = phi(y_q), and its column there is
    phi(inverse(y_q)): they give the Hermitian part's row, the largest entry
    and the Hermitian defect, the same maxima as over the whole matrix, as
    G_b holds phi(h) and phi(inverse(h)) for every h in H.  The eigenvectors
    are the cached F_b itself.  Only a failing base gathers its own block, for
    its witness form.
    """

    def decide(g, c, unitaries, phi, tol):
        row = unitaries is not None
        if row:
            at = phi[c.arrows]
            scale = np.abs(at).max(axis=1)
            delta = tol * scale
            non_hermitian = np.abs(at - phi[g.inverse_of[c.arrows]].conj()).max(axis=1) > delta
            shift = np.where(scale > 0, delta, 1.0)[:, None]
            vecs = unitaries
            # G_b is normal, so Herm(G_b) has the real parts of its eigenvalues
            vals = row_spectra(at, vecs, c.home).real + shift
        else:
            gram, non_hermitian, a, shift = _forms(c, phi, tol)
            vals, vecs = np.linalg.eigh(a)
        spectra.append((c, vals, vecs, shift))

        def witness(i):
            # a copy: on the row path vecs is the cached F_b
            m = phi[c.gram[i]] if row else gram[i]
            vec = _non_hermitian_witness(m) if non_hermitian[i] else vecs[i, :, vals[i].argmin()].copy()
            return _form_witness(m, vec)

        return non_hermitian | (vals.min(axis=1) < 0), witness

    return decide


def _eigenpairs(g: FiniteGroupoid, phi: np.ndarray, tol: float) -> list[tuple]:
    """Per part of a fiber class (``gfourier.numerics.base_paths``), the
    class, the eigenvalues and eigenvectors V of each orbit base's
    Herm(G_b) + shift, in no particular order, from the one decomposition
    that decides it, and the shift: Herm(G_b) = V L V^H, L = eigenvalues -
    shift >= -delta.  Raises with ``is_positive_definite``'s unit and value
    on failure."""
    spectra = []
    verdict = _verdict(g, phi, tol, _eigen_decider(spectra))
    if not verdict:
        raise ValueError(f"not positive definite: unit {verdict.unit} has form value {verdict.value}")
    return spectra


def _inertia_decider(weighted: bool):
    """The point-set (or, ``weighted``, the integral) criterion's decider:
    ``_negative_directions`` of the whole form matrices."""

    def decide(g, c, unitaries, phi, tol):
        m, non_hermitian, a, _ = _forms(c, phi, tol, g.weights[c.arrows[c.rows]] if weighted else None)
        not_pd, direction = _negative_directions(a)
        return non_hermitian | not_pd, lambda i: _form_witness(
            m[i], _non_hermitian_witness(m[i]) if non_hermitian[i] else direction(i))

    return decide


def _negative_directions(a: np.ndarray):
    """Unpivoted LDL^H of a stack of Hermitian matrices in plain numpy; a is overwritten.

    No LAPACK call, and no row path: the matrices are factored whole.
    By Sylvester's law of inertia a matrix is positive definite exactly when
    every pivot is positive.  Returns the mask of the matrices with a pivot
    d_k <= 0 and a function giving, for row i of the stack, the unit vector
    v = L^{-H} e_k of its first such pivot, which has v^H a v = d_k.
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
    """A vector whose quadratic form against m is not real (conjugate-symmetry failure).

    The form's imaginary part is v^H s v, s = (m - m^H) / 2i: s_pp at e_p, and
    at e_p + z e_q, |z| = 1, s_pp + s_qq + 2 Re(z s_pq), at least 2|s_pq| when z
    turns s_pq to the sign of s_pp + s_qq; the larger of the two bounds wins.
    """
    s = (m - m.conj().T) / 2j
    reach = np.abs(s) * (2 - np.eye(len(s)))
    p, q = np.unravel_index(int(reach.argmax()), reach.shape)
    v = np.zeros(m.shape[0], dtype=complex)
    v[p] = 1.0
    if q != p:
        v[q] = np.copysign(1.0, (s[p, p] + s[q, q]).real) * s[p, q].conj() / abs(s[p, q])
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
    return _verdict(g, phi, tol, _inertia_decider(False))


def integral_form(g: FiniteGroupoid, phi, u: int, f) -> complex:
    """Weighted double sum of phi(inverse(y) x) f(y) conj(f(x)) over the fiber of u."""
    f = np.asarray(f, dtype=complex)
    kernel = _integral_kernels(g.weights[g.r_fibers[u]], gram_matrix(g, phi, u))
    return complex(f.conj() @ kernel @ f)


def pd_verdict_integral(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> PdVerdict:
    """Haar-integral criterion decided by inertia on the weighted kernel.

    LDL^H of each unit's kernel w(x) w(y) phi(inverse(y) x) plus delta * w**2.
    The witness is a test function on the fiber that makes ``integral_form``
    negative.
    """
    return _verdict(g, phi, tol, _inertia_decider(True))


def _integral_kernels(w: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Weighted kernels from Gram matrices (last two axes) and fiber weights w."""
    return (w[..., :, None] * w[..., None, :]) * gram.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# bundles and coefficients


@dataclass(frozen=True)
class MapStack:
    """The distinct maps of one shape, and the arrows that carry them: arrow
    ``arrows[j]`` carries map ``at[j]``.  ``maps`` holds permutation rows,
    (n, m) integers, row i the map v -> v[maps[i]] (the matrix
    ``np.eye(m)[maps[i]]``), or matrices, (n, rows, cols)."""

    maps: np.ndarray
    arrows: np.ndarray
    at: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of each map as a matrix."""
        return (self.maps.shape[1],) * 2 if self.maps.ndim == 2 else self.maps.shape[1:]


class GHilbertBundle:
    """Finite-dimensional Hilbert fibers over units with arrow isometries.

    The map of an arrow x goes from the fiber at source(x) to the fiber at
    range(x); composable arrows multiply, inverses transpose-conjugate, and
    unit arrows map to identities (checked by the test suites, not assumed).
    ``stacks`` holds one ``MapStack`` of distinct maps per shape; the tuple of
    one matrix per arrow of ``GHilbertBundle(dims, maps)`` is stacked an entry
    per arrow.  ``maps`` is that tuple, derived on first read and kept:
    read-only views, one object per distinct map.
    """

    def __init__(self, dims, maps=(), stacks=None):
        self.dims = tuple(dims)
        self.stacks = _stacked(maps) if stacks is None else tuple(stacks)
        self._maps = None

    @property
    def maps(self) -> tuple[np.ndarray, ...]:
        if self._maps is None:
            views, entry = [], np.empty(sum(s.arrows.size for s in self.stacks), dtype=int)
            for s in self.stacks:
                entry[s.arrows] = s.at + len(views)
                dense = np.eye(s.maps.shape[1])[s.maps] if s.maps.ndim == 2 else s.maps.view()
                dense.flags.writeable = False
                views.extend(dense)
            self._maps = tuple(map(views.__getitem__, entry.tolist()))
        return self._maps


def _stacked(maps) -> tuple[MapStack, ...]:
    """A tuple of one matrix per arrow as one ``MapStack`` per shape, an entry per arrow."""
    shapes = list(map(np.shape, maps))
    stacks = []
    for shape in sorted(set(shapes)):
        arrows = np.flatnonzero([s == shape for s in shapes])
        if len(shape) != 2:
            raise ValueError(f"map of arrow {arrows[0]} is not a matrix")
        stacks.append(MapStack(np.stack([maps[x] for x in arrows]), arrows, np.arange(arrows.size)))
    return tuple(stacks)


@dataclass(frozen=True)
class BundleSection:
    vectors: tuple[np.ndarray, ...]


def trivial_bundle(g: FiniteGroupoid, dim: int = 1) -> GHilbertBundle:
    """Fibers C^dim with the identity on every arrow: one permutation, carried by all."""
    identity = MapStack(np.arange(dim)[None], np.arange(g.n_arrows), np.zeros(g.n_arrows, dtype=int))
    return GHilbertBundle((dim,) * g.n_units, stacks=(identity,))


def constant_section(g: FiniteGroupoid, bundle: GHilbertBundle, value=1.0) -> BundleSection:
    return BundleSection(tuple(np.full(d, value, dtype=complex) for d in bundle.dims))


def coefficient(g: FiniteGroupoid, bundle: GHilbertBundle, xi: BundleSection, eta: BundleSection) -> np.ndarray:
    """The arrow function <L_x xi(source x), eta(range x)>, conjugate linear in xi.

    Each stack of ``bundle.stacks`` moves the vectors at the sources of its
    arrows at once: permutation rows by one gather, which moves entries
    exactly as their 0/1 matrix does, and matrices by one batched product.
    The moved vectors, zero past each fiber's dimension, meet eta at the
    ranges in one row sum.
    """
    dims = np.asarray(bundle.dims, dtype=int)
    for name, sec in (("xi", xi), ("eta", eta)):
        got, want = list(map(np.shape, sec.vectors)), list(zip(bundle.dims))
        if got != want:
            u = next((u for u, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            raise ValueError(f"{name} has wrong dimension at unit {u}")
    # one comparison per stack, and every arrow past the stacks' count or g's is wrong
    count = sum(s.arrows.size for s in bundle.stacks)
    misfits = [min(count, g.n_arrows)] if count != g.n_arrows else []
    for s in bundle.stacks:
        x = s.arrows[s.arrows < g.n_arrows]
        misfits += x[(dims[g.range_of[x]] != s.shape[0]) | (dims[g.source_of[x]] != s.shape[1])].tolist()
    if misfits:
        raise ValueError(f"map of arrow {min(misfits)} does not go from its source fiber to its range fiber")
    width = int(dims.max(initial=0))
    moving = _padded(xi, dims, width)
    onto = moving if eta is xi else _padded(eta, dims, width)
    moved = np.zeros((g.n_arrows, width), dtype=complex)
    for s in bundle.stacks:
        rows, cols = s.shape
        sources = g.source_of[s.arrows]
        if s.maps.ndim == 2:
            moved[s.arrows, :rows] = moving.ravel()[sources[:, None] * width + s.maps[s.at]]
        else:
            moved[s.arrows, :rows] = (s.maps[s.at] @ moving[sources, :cols, None])[:, :, 0]
    return np.sum(moved.conj() * onto[g.range_of], axis=1)


def _padded(section: BundleSection, dims: np.ndarray, width: int) -> np.ndarray:
    """The vectors of a section as the rows of one array, zero past each unit's dimension."""
    out = np.zeros((dims.size, width), dtype=complex)
    # a row-major mask takes the concatenated vectors in order
    out[dims[:, None] > np.arange(width)] = np.concatenate([np.zeros(0), *section.vectors])
    return out


def gns_bundle(g: FiniteGroupoid, phi, tol: float = PSD_TOL) -> tuple[GHilbertBundle, BundleSection]:
    """Bundle and section reconstructing a positive definite phi as a coefficient.

    The fiber at u is functions-on-the-fiber modulo the null space of the
    semi-inner product with kernel w w phi(inverse(y) x); arrows act by left
    translation; the section is the class of the normalized unit point mass.
    Raises with the Gram witness when phi is not positive definite.

    The bundle is induced from the isotropy group of each orbit's base b and
    factored by the eigenvalue verdict's Herm(G_b) = V L V^H:
    C_b = sqrt(L) V^T D, D the fiber weights, has C_b^H C_b = K_b =
    D conj(G_b) D, and C_b[:, perm_u] factors u's kernel.  With a_v the
    transport arrow from b to v, the map of an arrow x from s to t is
    pi(h) = C_b T_h C_b^+ for h = inverse(a_t) x a_s, where T_h translates
    the base fiber by h: one map per isotropy element, read with its
    permutation rows from the tables of ``FiberClass``.  On an orbit of full
    rank C_b = conj(G_b)^(1/2) D commutes with every T_h (T_h is real and
    commutes with G_b, and h y has the source, so the weight, of y), so
    pi(h) = T_h, held as its permutation rows.  Elsewhere C_b keeps the pairs
    above the rank threshold, and C_b^+ = D^-1 conj(V) L^(-1/2): one batched
    product per rank.  The section at u is C_b[:, home_u] / w_u.  As D
    commutes with T_h and D[home_u] = w_u, neither sees D, which is never
    formed.  So C_b itself is formed only on an orbit of lower rank: on a
    full-rank orbit the section is column home_u of conj(V) sqrt(L) V^T, which
    on an orbit of one unit is one product of V with a vector, where V is the
    cached F_b on the row path (``_root_rows``).
    """
    phi = arrow_function(g, phi)
    dims = np.empty(g.n_units, dtype=int)
    section = np.zeros((g.n_units, np.bincount(g.range_of, minlength=1).max()), dtype=complex)
    parts = {}
    for c, vals, vecs, shift in _eigenpairs(g, phi, tol):
        m = c.arrows.shape[1]
        # rank is relative to the top of Herm(G_b) + shift: a zero G_b's L is rounding
        lam = vals - shift
        keep = lam > tol * vals.max(axis=1, keepdims=True)
        rank = keep.sum(axis=1)
        full = rank == m
        dims[c.units] = rank[c.orbit]
        # a full-rank orbit's section: column home_u of conj(V) sqrt(L) V^T
        section[c.units, :m] = _root_rows(c, vecs, np.sqrt(np.where(keep, lam, 0.0)))
        low = np.flatnonzero(~full)
        if low.size:
            # an orbit of rank r < m: C_b = sqrt(L) V^T on its r largest pairs
            # (of d columns, the class's largest such rank), and its section
            d = rank[low].max()
            order = np.argsort(-lam[low], axis=1)[:, :d]
            kept = np.take_along_axis(vecs[low], order[:, None, :], axis=2)
            root = np.sqrt(np.take_along_axis(np.where(keep[low], lam[low], 1.0), order, axis=1))
            factor = root[:, :, None] * kept.swapaxes(1, 2)
            slot = np.cumsum(~full) - 1
            rows = np.flatnonzero(~full[c.orbit])
            section[c.units[rows], :d] = factor[slot[c.orbit[rows]], :, c.home[rows]]
        # a full-rank orbit's maps are the translations' permutation rows;
        # elsewhere pi(h) = C T_h C^+, one batched product per rank
        kind = np.where(full, -1, rank)
        kinds = sorted(set(kind.tolist()))
        for r in kinds:
            if len(kinds) == 1:
                mine, arrows, at = slice(None), c.arrows, c.element
            else:
                mine = np.flatnonzero(kind[c.element_base] == r)
                hit = kind[c.orbit] == r
                arrows, at = c.arrows[hit], np.searchsorted(mine, c.element[hit])
            maps = c.translation[mine]
            if r >= 0:
                own = slot[c.element_base[mine]]
                maps = factor[own, :r] @ (kept[own[:, None], maps, :r].conj() / root[own, None, :r])
            found = parts.setdefault(maps.shape[1:], [])
            found.append((maps, arrows.ravel(), at.ravel() + sum(len(f[0]) for f in found)))
    # one stack per shape: classes with the same rank join theirs
    stacks = [MapStack(*map(np.concatenate, zip(*found))) for found in parts.values()]
    bundle = GHilbertBundle(tuple(dims.tolist()), stacks=stacks)
    return bundle, BundleSection(tuple(section[u, :n] for u, n in enumerate(bundle.dims)))


def _root_rows(c, vecs: np.ndarray, s: np.ndarray, spread: bool = False) -> np.ndarray:
    """Row home_u of R_b = V_b diag(s_b) V_b^H for every row u of the class c,
    from the eigenvectors V and the (k, m) weights s of its bases, in any
    column order; with ``spread``, permuted by perm_u (``FiberClass.spread``).
    When every orbit of c is one unit (so perm is the identity) this is one
    product of V_b with a vector per base, conj(V_b (s_b * conj(V_b[home]))),
    with no m x m matrix formed; otherwise one product R_b per base."""
    if c.alone:
        y = s * vecs[np.arange(s.shape[0]), c.home].conj()
        return (vecs @ y[:, :, None])[:, :, 0].conj()
    root = (vecs * s[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return c.spread(root) if spread else root[c.orbit, c.home]


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
    by perm_u (``FiberClass.perm``), and so is its square root, so one root
    per orbit serves every unit (``FiberClass.spread``).  The base block is
    G_b^T, whose root is conj(V sqrt(L+) V^H) for the eigenvalue verdict's
    Herm(G_b) = V L V^H, with L+ = max(L, 0) and L >= -delta.
    """
    phi = arrow_function(g, phi)
    if not g.counting:
        g.fiber_classes  # weights that are not a left Haar system are refused first, in validate's words
        raise ValueError("square-root section construction needs all Haar weights equal to 1")
    support = np.abs(phi) > 1e-13 * float(np.abs(phi).max(initial=0.0))
    marked = np.zeros(g.n_units, dtype=bool)
    marked[g.range_of[support]] = marked[g.source_of[support]] = True
    xi = np.zeros(g.n_arrows, dtype=complex)
    for c, vals, vecs, shift in _eigenpairs(g, phi, tol):
        # the root at u applied to the point mass at its unit arrow: row home_u
        # of the transposed base root V sqrt(L+) V^H, permuted by perm_u
        rows = _root_rows(c, vecs, np.sqrt(np.clip(vals - shift, 0.0, None)), spread=True)
        xi[c.arrows] = rows * marked[c.units][:, None]
    return xi


def off_diagonal_embed(g: FiniteGroupoid, rho, phi, tau) -> np.ndarray:
    """Block embedding of (rho, phi; phi-involution, tau) on the product with the
    2-point pair groupoid, using the canonical product arrow indexing."""
    rho = arrow_function(g, rho)
    phi = arrow_function(g, phi)
    tau = arrow_function(g, tau)
    # product_arrow_id(x, i, j) = 4 x + 2 i + j
    return np.stack([rho, phi, star(g, phi), tau], axis=1).ravel()
