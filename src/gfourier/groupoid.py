"""Finite groupoids with Haar weights, standard constructors, and bisections.

Arrows are dense integer ids.  Composition is a full table with ``UNDEFINED``
marking non-composable pairs, so validation can be exhaustive and composition
is O(1).  A Haar system at finite scale is a positive weight per arrow; left
invariance forces the weight to depend only on the source unit, which
``validate`` checks rather than assumes.

The composable pairs G^(2) are indexed once per groupoid and cached
(``FiniteGroupoid.composable_pairs``): for each arrow x, every arrow t of its
range fiber with y = inverse(t) x, so that x = t y.  Convolution, the regular
operators and the regular coefficients are gathers over this index followed
by a sum over each arrow's segment or a scatter into a matrix.  A second
cached index built from it (``FiniteGroupoid.fiber_classes``) stacks the unit
blocks: the units are grouped by range-fiber size, so that the Gram matrices
or the right convolution blocks of all units of a group are one gather, and
the per-unit linear algebra is one stacked LAPACK call.  Each class
(``FiberClass``) also names the base of every unit's orbit (its smallest
unit) and the permutation of the base fiber that a transport arrow from the
base makes: by the groupoid axioms a unit's Gram block is its base's with
rows and columns permuted, and with left-invariant weights so are its
weighted kernel and its right convolution block.  So the positivity
verdicts, the GNS factors, the square roots, the reduced norm and the
coefficient-norm problem decompose one block per orbit.  The index is built
only for a left Haar system: weights that ``validate`` flags make it raise
``ValueError`` with ``validate``'s first weight violation, so everything
built on it refuses them in one place.  A base is carried by its
unit arrow, so its permutation is the identity.  An orbit is the pair
groupoid of its units times its base's isotropy group H, and the class lists
every arrow's coordinate h in H and the translation of the base fiber by h,
from which the GNS bundle is induced.  A third
(``FiniteGroupoid.isotropy_blocks``) holds, for each base whose isotropy
group H is nontrivial, a unitary F_b in which every base matrix that commutes
with the translations of the fiber by H is block diagonal, with one block of
size d_pi |X| per eigenvalue of a generic element of H's group algebra.  The
decompositions per orbit take one of three paths by those blocks
(``gfourier.numerics.base_paths``): a base whose blocks are all 1x1 (abelian
H, an orbit of one unit) reads its spectrum from the values on its fiber,
one Gram row, with no block gathered; the other bases of a fiber class are
decomposed whole where one of them has trivial isotropy, and split into
their blocks otherwise.  These indexes need
every product inverse(t) x to be defined and raise ``UndefinedProductError``
otherwise.  ``validate`` reads the composition table instead, because its
input may not be a groupoid.  One kernel compares (xy)z with x(yz) by
flat gathers from the table: the triples of each middle arrow, stacked
over the middles with equal fiber sizes.  A table that passes the other
checks is associative by Light's test on a generating set, the kernel on
the middles that are a transport, its inverse or an isotropy generator:
(2 |X| - 2 + k) |X|^2 |H|^2 of the |X|^4 |H|^3 composable triples of an
orbit of |X| units with isotropy group H and k <= log2 |H| generators.
Any other input, or a failed test, runs it on every middle, which lists
the failures.  The group-table check of the constructors is the same test
on the table's one-unit groupoid: at most k^2 log2 k triples, and no k^3
array, for a group of order k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

UNDEFINED = -1

# the most triples that one stacked comparison holds; passes of 2^13-2^14
# triples ran fastest on pair(16..48) and Z30+Z40+Z50 on a 2-core machine (the
# arrays of a pass stay in cache)
_STACK = 1 << 14
# the generic element of an isotropy group algebra that splits a base fiber
# into blocks: its coefficients come from this seed, and its eigenvalues
# within this fraction of its norm share a block
_BLOCK_SEED = 2003
_BLOCK_TOL = 1e-8


class UndefinedProductError(ValueError):
    """A product that the composable-pairs index needs is undefined (not a groupoid)."""


@dataclass(frozen=True)
class FiberClass:
    """The units whose range fibers have the same size m, with their unit
    blocks, their orbits and the isotropy elements of their arrows.

    Row i of ``arrows`` is the range fiber of ``units[i]``, ascending, and
    ``gram[i, p, q]`` is the arrow inverse(arrows[i, p]) arrows[i, q], so that
    ``phi[gram]`` stacks the Gram matrices of an arrow function phi.

    The base of an orbit is its smallest unit.  ``bases`` holds the rows of
    the class that are bases, ascending, and ``orbit[i]`` the index in
    ``bases`` of the base of row i.  ``transport[i]`` is the column of row i's
    fiber holding the transport arrow a from the base to ``units[i]``: the
    unit arrow on a base row, the first arrow from the base elsewhere.
    ``perm[i, p]`` is the place in the base fiber of inverse(a) arrows[i, p].
    Left multiplication by a maps the base fiber onto row i's, and
    inverse(a x) a y = inverse(x) y, so ``gram[i]`` is the base's
    ``gram[b][perm[i]][:, perm[i]]`` with b = ``bases[orbit[i]]``; the source
    units, and so left-invariant weights, are carried along unchanged.  On a
    base row perm is the identity.  ``home[i]`` is the place of inverse(a) in
    the base fiber, where perm[i] sends the unit arrow of ``units[i]``; on a
    base row it is the place of the unit arrow.  ``spread`` reads base
    matrices onto every row's fiber by this index.

    The arrow x = ``arrows[i, p]`` from s to t carries the element
    h = inverse(a_t) x a_s of its base b's isotropy group, a_v the transport
    arrow of v: element ``element[i, p]``.  Element j is
    inverse(arrows[b, ``element_place[j]``]), b = ``bases[element_base[j]]``,
    ascending in (base, place), so a base's elements are the inverses of the
    arrows of its fiber with source b.  ``translation[j]`` holds the
    permutation rows of T_h, v -> v[translation[j]]: row q is the place of
    inverse(h) y_q, y_q the q-th arrow of the base fiber, so T_h takes the
    point mass at y_q to the one at h y_q.
    """

    units: np.ndarray
    arrows: np.ndarray
    gram: np.ndarray
    bases: np.ndarray
    orbit: np.ndarray
    transport: np.ndarray
    perm: np.ndarray
    home: np.ndarray
    element: np.ndarray
    element_base: np.ndarray
    element_place: np.ndarray
    translation: np.ndarray

    @property
    def alone(self) -> bool:
        """Whether every orbit of the class is one unit (its own base)."""
        return self.bases.size == self.orbit.size

    @property
    def rows(self) -> np.ndarray | slice:
        """``bases`` as an index of the class's rows: every row, as a slice
        that gathers nothing, when every orbit is one unit."""
        return slice(None) if self.alone else self.bases

    def spread(self, stack: np.ndarray) -> np.ndarray:
        """Arrow values ``stack[..., orbit[i], home[i], perm[i]]`` on the fiber
        of every row i, from a (..., n_bases, m, m) stack of base matrices.
        A base matrix M that commutes with the isotropy permutations of the
        base fiber (as square roots of a Gram block and the completion
        factors of ``gfourier.norms`` do), or any M with trivial isotropy,
        gives the x with x[gram[b]] = M."""
        return stack[..., self.orbit[:, None], self.home[:, None], self.perm]

    def select(self, ids: np.ndarray) -> FiberClass:
        """The class of the orbits of ``bases[ids]`` alone (``ids`` ascending),
        with their rows, bases and elements renumbered."""
        at = np.full(self.bases.size, -1)
        at[ids] = np.arange(ids.size)
        rows = np.flatnonzero(at[self.orbit] >= 0)
        mine = at[self.element_base] >= 0
        return FiberClass(self.units[rows], self.arrows[rows], self.gram[rows],
                          np.searchsorted(rows, self.bases[ids]), at[self.orbit[rows]],
                          self.transport[rows], self.perm[rows], self.home[rows],
                          (np.cumsum(mine) - 1)[self.element[rows]], at[self.element_base[mine]],
                          self.element_place[mine], self.translation[mine])


@dataclass(frozen=True)
class IsotropyBlocks:
    """Bases of one fiber class whose isotropy groups are nontrivial, with one
    block layout, and the unitaries that split their matrices into blocks.

    ``bases`` indexes ``FiberClass.bases``, ascending.  A base matrix M that
    commutes with the left translations of its fiber by the isotropy group H
    (the Gram block, the Haar kernel, the right convolution block) is block
    diagonal in F = ``unitary[i]``: F^H M F holds, along its diagonal, the
    blocks of ``runs`` in order, n blocks of size s for each (s, n), s
    ascending.  There are sum_pi d_pi blocks, one of size d_pi |X| for each
    irreducible representation pi of H and each of d_pi eigenvalues of a
    generic Hermitian element of the group algebra, where |X| is the number
    of units of the orbit.  The spectra of such a matrix take one of three
    paths (``gfourier.numerics.base_paths``): row, where ``runs`` is
    ((1, m),) (abelian H, |X| = 1), and the eigenvalues come from one row of
    M times F; whole, for the other bases of a fiber class where one of them
    has trivial isotropy (no layout); split, into these blocks, otherwise.
    """

    bases: np.ndarray
    unitary: np.ndarray
    runs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FiniteGroupoid:
    """Arrow-indexed category data: range/source units, inverses, composition.

    ``unit_arrows[u]`` is the arrow id of the identity at unit ``u``;
    ``range_of``/``source_of`` map arrows to unit indices; ``weights`` is the
    Haar weight of each arrow (= the weight of its source unit for a valid
    left Haar system).
    """

    range_of: np.ndarray
    source_of: np.ndarray
    inverse_of: np.ndarray
    compose_table: np.ndarray
    unit_arrows: np.ndarray
    weights: np.ndarray

    @property
    def n_arrows(self) -> int:
        return int(self.range_of.shape[0])

    @property
    def n_units(self) -> int:
        return int(self.unit_arrows.shape[0])

    @cached_property
    def r_fibers(self) -> tuple[np.ndarray, ...]:
        """Arrow ids with range u, ascending, one array per unit."""
        return tuple(np.flatnonzero(self.range_of == u) for u in range(self.n_units))

    @cached_property
    def range_fibers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, counts, starts): the arrows sorted by range, ascending
        within each fiber, and each unit's fiber size and start in ``order``."""
        return _fibers(self.range_of, self.n_units)

    @cached_property
    def composable_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The composable pairs G^(2) as flat arrays (x, t, y, starts).

        Entry k holds an arrow x, an arrow t of the range fiber of x and
        y = inverse(t) x, so that x = t y.  Entries are grouped by x in
        ascending order, t ascending within a group, and the group of x starts
        at ``starts[x]``; there are sum over units u of |fiber(u)|^2 entries.
        """
        by_range, counts, fiber_starts = self.range_fibers
        sizes = counts[self.range_of]
        starts = np.cumsum(sizes) - sizes
        x = np.repeat(np.arange(self.n_arrows), sizes)
        t = by_range[fiber_starts[self.range_of[x]] + np.arange(x.size) - starts[x]]
        y = self.compose_table[self.inverse_of[t], x]
        if np.any(y == UNDEFINED):
            k = int(np.argmax(y == UNDEFINED))
            raise UndefinedProductError(
                f"arrows {self.inverse_of[t[k]]} = inverse({t[k]}) and {x[k]} do not compose"
            )
        return x, t, y, starts

    @cached_property
    def fiber_classes(self) -> tuple[FiberClass, ...]:
        """The units grouped by range-fiber size, with their Gram arrow ids,
        their orbits and the isotropy elements of their arrows.

        The groups come in the order of their first units, so unit 0 is the
        first unit of the first group.

        Within the group of size m the entries of the arrows x of a fiber come
        x-ascending in the composable pairs, t ascending within each x, so the
        segment of the q-th arrow is column q of the fiber's Gram block.

        The smallest source of the arrows into v is the smallest unit of v's
        orbit, and an orbit's units, so the sources of a class's arrows, lie
        in one class.  Raises ``ValueError`` with ``validate``'s first weight
        violation when the weights are not a left Haar system.
        """
        misweighted = _weight_violations(self, 1)
        if misweighted:
            raise ValueError(misweighted[0])
        _, _, y, starts = self.composable_pairs
        by_range, counts, fiber_starts = self.range_fibers
        # every arrow's place in its range fiber
        place = np.empty(self.n_arrows, dtype=int)
        place[by_range] = np.arange(self.n_arrows) - np.repeat(fiber_starts, counts)
        classes = []
        sizes, first_units = np.unique(counts, return_index=True)
        for m in sizes[np.argsort(first_units)]:
            units = np.flatnonzero(counts == m)
            rows = np.arange(units.size)
            arrows = by_range[fiber_starts[units][:, None] + np.arange(m)]
            gram = y[starts[arrows][:, None, :] + np.arange(m)[:, None]]
            sources = self.source_of[arrows]
            base = sources.min(axis=1)
            own = base == units
            bases = np.flatnonzero(own)
            orbit = (np.cumsum(own) - 1)[np.searchsorted(units, base)]
            transport = np.where(own, place[self.unit_arrows[units]],
                                 (sources == base[:, None]).argmax(axis=1))
            perm = place[gram[rows, transport]]
            home = place[self.inverse_of[arrows[rows, transport]]]
            # inverse(h) = inverse(a_s) inverse(x) a_t: perm[s] takes the place in
            # s's fiber of inverse(x) a_t, the Gram id of t's at (x, a_t), to the base's
            code = orbit[:, None] * m + perm[np.searchsorted(units, sources), place[gram[rows, :, transport]]]
            # the distinct elements, ascending, and the one of each arrow
            seen = np.zeros(bases.size * m, dtype=bool)
            seen[code] = True
            element_base, element_place = divmod(np.flatnonzero(seen), m)
            b = bases[element_base]
            translation = place[gram[b, place[self.inverse_of[arrows[b, element_place]]]]]
            classes.append(FiberClass(units, arrows, gram, bases, orbit, transport, perm, home,
                                      (np.cumsum(seen) - 1)[code], element_base, element_place,
                                      translation))
        return tuple(classes)

    @cached_property
    def isotropy_blocks(self) -> tuple[tuple[IsotropyBlocks, ...], ...]:
        """The isotropy blocks of the orbit bases, per fiber class in the order
        of ``fiber_classes``: one ``IsotropyBlocks`` per block layout, holding
        only the bases whose isotropy group H is nontrivial.  A base with
        trivial isotropy (every base of a pair groupoid) is one block, so it
        gets no unitary.

        The translations T_h of the base fiber (``FiberClass.translation``)
        span a copy of H's group algebra; a = sum_h c_h T_h + conj(c_h) T_h^H
        with fixed complex c_h (so that a character and its conjugate differ)
        has, for generic c_h, exactly one eigenspace per block, and any matrix
        that commutes with every T_h commutes with a and keeps its eigenspaces.
        One ``eigh`` of a per base gives the blocks: eigenvalues within
        ``_BLOCK_TOL`` of ||a|| share one, since merging two blocks is always
        safe and only a split would be wrong.  Its eigenvectors leak between
        close eigenvalues (by 2e-12 of a matrix's norm on Z40 and Z50), so a
        second ``eigh``, of an element of the algebra whose eigenvalues are
        the block numbers 0, 1, 2, ..., gives F, accurate to rounding, with
        its blocks ordered by size.
        """
        out = []
        for c in self.fiber_classes:
            m = c.arrows.shape[1]
            order = np.bincount(c.element_base, minlength=c.bases.size)
            nontrivial = np.flatnonzero(order > 1)
            if not nontrivial.size:
                out.append(())
                continue
            # the elements h of the nontrivial bases: T_h^H, the translation by
            # the arrow inverse(h) at place ``at``, is 1 at (moved[p], p)
            mine = order[c.element_base] > 1
            which = np.searchsorted(nontrivial, c.element_base[mine])
            at, moved = c.element_place[mine], c.translation[mine]
            coefficients = np.random.default_rng(_BLOCK_SEED).standard_normal((m, 2)) @ [1, 1j]
            a = np.zeros((nontrivial.size, m, m), dtype=complex)
            # the supports of the T_h are disjoint: each entry takes one c_h
            a[which[:, None], moved, np.arange(m)] = coefficients[at][:, None]
            vals, vecs = np.linalg.eigh(a + a.conj().swapaxes(1, 2))
            layouts = {}
            for i in range(nontrivial.size):
                split = np.diff(vals[i]) > _BLOCK_TOL * np.abs(vals[i]).max()
                block = np.concatenate([[0], np.cumsum(split)])
                # the blocks numbered by size, ascending: sum_j j P_j over the
                # eigenprojections P_j of a lies in the algebra, and so does its
                # average over the support of each T_h, which drops the leak
                # between close eigenvalues of a; its eigenvalues are the
                # integers j, so its eigenvectors are accurate to rounding
                size = np.bincount(block)[block]
                number = np.unique(size * m + block, return_inverse=True)[1]
                spread = (vecs[i] * number) @ vecs[i].conj().T
                support = (moved[which == i], np.arange(m))
                numbered = np.zeros((m, m), dtype=complex)
                numbered[support] = spread[support].mean(axis=1, keepdims=True)
                ids, f = np.linalg.eigh((numbered + numbered.conj().T) / 2)
                sizes = np.bincount(np.rint(ids).astype(int))
                runs = tuple((int(s), int(n)) for s, n in zip(*np.unique(sizes, return_counts=True)))
                layouts.setdefault(runs, []).append((nontrivial[i], f))
            out.append(tuple(IsotropyBlocks(np.array([b for b, _ in group]),
                                            np.stack([f for _, f in group]), runs)
                             for runs, group in layouts.items()))
        return tuple(out)

    @property
    def unit_weights(self) -> np.ndarray:
        return self.weights[self.unit_arrows]

    @property
    def counting(self) -> bool:
        """Whether the Haar weights are the counting measure: all within 1e-12 of 1."""
        return bool(np.abs(self.weights - 1.0).max(initial=0.0) <= 1e-12)

    def compose(self, x: int, y: int) -> int:
        z = int(self.compose_table[x, y])
        if z == UNDEFINED:
            raise ValueError(f"arrows {x} and {y} do not compose")
        return z

    def inverse(self, x: int) -> int:
        return int(self.inverse_of[x])

    def with_unit_weights(self, unit_weights) -> "FiniteGroupoid":
        """Same groupoid with the Haar weight of each source unit replaced."""
        uw = np.asarray(unit_weights, dtype=float)
        if uw.shape != (self.n_units,) or not np.all((uw > 0) & (uw < np.inf)):
            raise ValueError("need one positive finite weight per unit")
        return FiniteGroupoid(
            range_of=self.range_of,
            source_of=self.source_of,
            inverse_of=self.inverse_of,
            compose_table=self.compose_table,
            unit_arrows=self.unit_arrows,
            weights=uw[self.source_of],
        )


def _fibers(ends: np.ndarray, n_units: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    counts = np.bincount(ends, minlength=n_units)
    return ends.argsort(kind="stable"), counts, counts.cumsum() - counts


def _build(range_of, source_of, inverse_of, compose_table, unit_arrows, unit_weights=None):
    range_of = np.asarray(range_of, dtype=int)
    source_of = np.asarray(source_of, dtype=int)
    inverse_of = np.asarray(inverse_of, dtype=int)
    compose_table = np.asarray(compose_table, dtype=int)
    g = FiniteGroupoid(
        range_of=range_of,
        source_of=source_of,
        inverse_of=inverse_of,
        compose_table=compose_table,
        unit_arrows=np.asarray(unit_arrows, dtype=int),
        weights=np.ones(range_of.shape[0]),
    )
    return g if unit_weights is None else g.with_unit_weights(unit_weights)


# ---------------------------------------------------------------------------
# constructors


def pair_groupoid(n: int, unit_weights=None) -> FiniteGroupoid:
    """Pair groupoid on n points: arrows (i, j), (i,j)(j,k) = (i,k).

    Arrow id of (i, j) is i*n + j; unit of point i is the arrow (i, i).
    """
    if n < 1:
        raise ValueError("need at least one point")
    i, j = divmod(np.arange(n * n), n)
    compose = np.full((n * n, n * n), UNDEFINED, dtype=int)
    # (a, b)(b, c) = (a, c) for all points a, b, c at once
    a, b, c = np.ix_(range(n), range(n), range(n))
    compose[a * n + b, b * n + c] = a * n + c
    return _build(i, j, j * n + i, compose, np.arange(n) * n + np.arange(n), unit_weights)


def _check_group_table(table: np.ndarray) -> tuple[int, np.ndarray]:
    """Return (identity, inverses) of a group multiplication table, or raise.

    Associativity is Light's test on the table's one-unit groupoid, which
    passes the other checks of ``validate`` once the identity and the
    two-sided inverses are found; when it fails, the first (a, b) of the
    scan of every triple, ascending, is named."""
    k = table.shape[0]
    if table.shape != (k, k) or k == 0:
        raise ValueError("multiplication table must be square and nonempty")
    if table.min() < 0 or table.max() >= k:
        raise ValueError("table entries must index group elements")
    ids = np.arange(k)
    two_sided = np.all(table == ids, axis=1) & np.all(table == ids[:, None], axis=0)
    if not two_sided.any():
        raise ValueError("table has no two-sided identity")
    identity = int(two_sided.argmax())
    hits = table == identity
    inv = hits.argmax(axis=1)
    no_inverse = (hits.sum(axis=1) != 1) | (table[inv, ids] != identity)
    if no_inverse.any():
        raise ValueError(f"element {no_inverse.argmax()} has no two-sided inverse")
    # the one-unit groupoid of the table passes every other check of validate
    zeros = np.zeros(k, dtype=int)
    g = _build(zeros, zeros, inv, table, [identity])
    if not _light_test(g):
        a, b, _ = _associativity_failures(g, 1)[0]
        raise ValueError(f"table is not associative at ({a}, {b})")
    return identity, inv


def group_groupoid(table) -> FiniteGroupoid:
    """One-unit groupoid from a group multiplication table (table[a][b] = ab)."""
    table = np.asarray(table, dtype=int)
    identity, inv = _check_group_table(table)
    k = table.shape[0]
    return _build(
        np.zeros(k, dtype=int), np.zeros(k, dtype=int), inv, table, np.array([identity])
    )


def cyclic_table(k: int) -> np.ndarray:
    a = np.arange(k)
    return (a[:, None] + a[None, :]) % k


def group_bundle(tables, unit_weights=None) -> FiniteGroupoid:
    """Disjoint union of one-unit groupoids; arrows compose only within a fiber."""
    groups = [np.asarray(t, dtype=int) for t in tables]
    if not groups:
        raise ValueError("need at least one fiber")
    meta = [_check_group_table(t) for t in groups]
    sizes = [t.shape[0] for t in groups]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rng = np.concatenate([np.full(s, u) for u, s in enumerate(sizes)])
    inv = np.concatenate([meta[u][1] + offsets[u] for u in range(len(groups))])
    compose = np.full((total, total), UNDEFINED, dtype=int)
    for u, t in enumerate(groups):
        o = offsets[u]
        compose[o : o + sizes[u], o : o + sizes[u]] = t + o
    units = np.array([meta[u][0] + offsets[u] for u in range(len(groups))])
    return _build(rng, rng.copy(), inv, compose, units, unit_weights)


def product_arrow_id(x: int, i: int, j: int) -> int:
    """Arrow id of (x, i, j) in ``product_with_pair_groupoid`` output, i, j in {0, 1}."""
    return 4 * x + 2 * i + j


def product_unit_id(u: int, i: int) -> int:
    return 2 * u + i


def product_with_pair_groupoid(g: FiniteGroupoid) -> FiniteGroupoid:
    """Product of g with the 2-point pair groupoid.

    Arrows are triples (x, i, j) with i, j in {0, 1}; (x,i,j)(y,j,l) composes
    to (xy,i,l) when xy does.  Units are the pairs (unit of g, i), and the
    arrow (x,i,j) inherits the weight of x.
    """
    n = g.n_arrows
    ids = np.arange(4 * n)
    x, rem = divmod(ids, 4)
    i, j = divmod(rem, 2)
    rng = 2 * g.range_of[x] + i
    src = 2 * g.source_of[x] + j
    inv = 4 * g.inverse_of[x] + 2 * j + i
    xs, ys = np.nonzero(g.compose_table != UNDEFINED)
    xy = g.compose_table[xs, ys]
    # (x, i, j)(y, j, l) = (xy, i, l): one row per choice of i, j, l
    i2, j2, l2 = np.indices((2, 2, 2)).reshape(3, 8, 1)
    compose = np.full((4 * n, 4 * n), UNDEFINED, dtype=int)
    compose[4 * xs + 2 * i2 + j2, 4 * ys + 2 * j2 + l2] = 4 * xy + 2 * i2 + l2
    units = 4 * np.repeat(g.unit_arrows, 2) + 3 * np.tile([0, 1], g.n_units)
    uw = np.repeat(g.unit_weights, 2)
    return _build(rng, src, inv, compose, units, uw)


def transformation_groupoid(table, action, unit_weights=None) -> FiniteGroupoid:
    """Action groupoid of a group acting on a finite point set.

    ``action[g][p]`` is g.p.  Arrows are pairs (g, p) with source p and range
    g.p; (g, h.p)(h, p) = (gh, p).
    """
    table = np.asarray(table, dtype=int)
    identity, ginv = _check_group_table(table)
    action = np.asarray(action, dtype=int)
    k = table.shape[0]
    if action.ndim != 2 or action.shape[0] != k:
        raise ValueError("action must map every group element on the point set")
    m = action.shape[1]
    if action.min() < 0 or action.max() >= m:
        raise ValueError("action entries must index points")
    if not np.array_equal(action[identity], np.arange(m)):
        raise ValueError("identity must act trivially")
    incompatible = np.any(action[:, action] != action[table], axis=2)
    if incompatible.any():
        a, b = np.argwhere(incompatible)[0]
        raise ValueError(f"action is not compatible with the product at ({a}, {b})")
    ids = np.arange(k * m)
    grp, pt = divmod(ids, m)
    rng = action[grp, pt]
    src = pt
    inv = ginv[grp] * m + action[grp, pt]
    compose = np.full((k * m, k * m), UNDEFINED, dtype=int)
    # (a, b.p)(b, p) = (ab, p) for all group elements a, b and points p at once
    a, b, p = np.ix_(range(k), range(k), range(m))
    compose[a * m + action[b, p], b * m + p] = table[a, b] * m + p
    units = identity * m + np.arange(m)
    return _build(rng, src, inv, compose, units, unit_weights)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _associativity_failures(g: FiniteGroupoid, limit: int, middles=None) -> list[tuple[int, int, int]]:
    """The first ``limit`` triples (x, y, z), ascending, whose (xy)z and x(yz) differ.

    The triples are those of ``validate`` whose middle arrow y is in
    ``middles`` (distinct arrow ids; every arrow when None): x with source
    range(y) and xy defined, z with range source(y); x(yz) counts as
    undefined where yz is.  Needs the ids and products that ``validate``
    checks first.  The middles with equal (x count, z count) form one group,
    compared as (middles, x, z) arrays through flat gathers from the table,
    at most ``_STACK`` triples a pass (or one x when its z's alone are
    more).  Each pass keeps its first ``limit`` failures, merged in order.
    """
    n, flat = g.n_arrows, g.compose_table.ravel()
    ys = np.arange(n) if middles is None else middles
    by_range, r_counts, r_starts = g.range_fibers
    by_source, s_counts, s_starts = _fibers(g.source_of, g.n_units)
    x_units, z_units = g.range_of[ys], g.source_of[ys]
    sizes = s_counts[x_units] * (n + 1) + r_counts[z_units]  # (p, q) as p (n + 1) + q
    hits = []  # failures as (x n + y) n + z
    for size in sorted(set(sizes.tolist())):
        at = sizes == size
        y = ys[at]
        p, q = divmod(size, n + 1)
        # the x's as the offsets x n of their rows in the flat table
        x_rows = by_source[s_starts[x_units[at]][:, None] + np.arange(p)] * n
        zs = by_range[r_starts[z_units[at]][:, None] + np.arange(q)]
        # an undefined product (-1) indexes the table from its end: the triples
        # with xy undefined are dropped, and x(yz) is set back to UNDEFINED
        xy = flat.take(x_rows + y[:, None])
        yz = flat.take(y[:, None] * n + zs)
        yz_undefined = yz == UNDEFINED
        some_yz_undefined = np.count_nonzero(yz_undefined)
        xy_rows = xy * n
        per_pass = max(1, _STACK // max(q, 1))  # x's per pass
        y_step, x_step = max(1, per_pass // max(p, 1)), max(1, min(p, per_pass))
        for y0 in range(0, y.size, y_step):
            for x0 in range(0, p, x_step):
                i, j = slice(y0, y0 + y_step), slice(x0, x0 + x_step)
                right = flat.take(x_rows[i, j, None] + yz[i, None])
                if some_yz_undefined:
                    right = np.where(yz_undefined[i, None], UNDEFINED, right)
                fails = flat.take(xy_rows[i, j, None] + zs[i, None]) != right
                if not np.count_nonzero(fails):
                    continue
                fails &= xy[i, j, None] != UNDEFINED
                yi, xi, zi = np.nonzero(fails)
                yi += y0
                key = (x_rows[yi, xi + x0] + y[yi]) * n + zs[yi, zi]
                hits.append(np.sort(key)[:limit])
    if not hits:
        return []
    found = np.sort(np.concatenate(hits))[:limit]
    x, yz = divmod(found, n * n)
    return list(zip(x.tolist(), *(v.tolist() for v in divmod(yz, n))))


def _light_test(g: FiniteGroupoid) -> bool:
    """Whether Light's associativity test on a generating set passes.

    The table must pass every other check of ``validate``.  The arrows a
    with (xa)y = x(ay) for all x, y composable with a contain the unit
    arrows and are closed under products, by the identity, definedness and
    endpoint laws alone (Light's test; Clifford and Preston, The Algebraic
    Theory of Semigroups I, 1.2).  So the table is associative when they
    contain a set S whose products reach every arrow.  S holds the transport t_v of each
    unit v that is not the base of its orbit (an arrow from the base, the
    least source of the arrows into v), its inverse, and greedy generators
    of each base's isotropy group; the generators' closure is built from
    products of members only, and every arrow x from u to v must be
    (t_v h) inverse(t_u) with h = (inverse(t_v) x) t_u in it.  The triples
    whose middle arrow is in S are compared by ``_associativity_failures``;
    False when one fails, or when the closure takes more rounds than a
    group's would.
    """
    n, n_units = g.n_arrows, g.n_units
    rng, src, inv, e = g.range_of, g.source_of, g.inverse_of, g.unit_arrows
    flat = g.compose_table.ravel()
    # range fibers, ascending within each; every one holds its unit arrow
    order, _, starts = g.range_fibers
    ranges, sources = rng[order], src[order]
    base = np.minimum.reduceat(sources, starts)
    moved = base != np.arange(n_units)
    # the least arrow from the base into each unit; a base keeps its unit arrow
    first = np.minimum.reduceat(np.where(sources == base[ranges], order, n), starts)
    transport = np.where(moved, first, e)
    gens = [transport[moved], inv[transport[moved]]]
    # the isotropy arrows of the bases, ascending, as one row per base in one
    # array per isotropy order above 1, with the products of each row's pairs
    loops = order[(sources == ranges) & ~moved[ranges]]
    orders = np.bincount(rng[loops], minlength=n_units)[rng[loops]]
    rows = [loops[orders == k].reshape(-1, k) for k in sorted(set(orders.tolist()) - {1})]
    products = [flat.take(iso[:, :, None] * n + iso[:, None, :]) for iso in rows]
    reach = np.zeros(n, dtype=bool)
    reach[e] = True
    # products of base loops are base loops, so reach stays in the units and
    # loops: the base loops and the unit arrows of the other units
    target = loops.size + np.count_nonzero(moved)
    # a group of order k needs at most log2 k greedy generators, each closed
    # by at most log2 k + 1 squarings (words of length below k)
    width = rows[-1].shape[1] if rows else 1
    stalled = True  # the unit arrows are closed under products
    for _ in range(width.bit_length() * ((width - 1).bit_length() + 1)):
        if stalled:  # one more generator, the least arrow missing on each open base
            for iso in rows:  # on a closed base argmax picks a reached arrow, dropped
                least = iso[np.arange(len(iso)), (~reach[iso]).argmax(axis=1)]
                gens.append(least[~reach[least]])
                reach[gens[-1]] = True
        size = np.count_nonzero(reach)
        if size == target:
            break
        for iso, product in zip(rows, products):
            inside = reach[iso]
            reach[product[inside[:, :, None] & inside[:, None, :]]] = True
        stalled = np.count_nonzero(reach) == size
    else:
        return False
    if moved.any():  # else every arrow is a base loop, reached, and h is the arrow itself
        ids = np.arange(n)
        tv, tu = transport[rng], transport[src]
        h = flat.take(flat.take(inv[tv] * n + ids) * n + tu)
        if not (reach[h].all() and np.array_equal(flat.take(flat.take(tv * n + h) * n + inv[tu]), ids)):
            return False
    return not _associativity_failures(g, 1, np.concatenate(gens))


def validate(g: FiniteGroupoid, max_report: int = 50) -> ValidationReport:
    """Check every groupoid axiom and Haar left-invariance; list violations.

    The violations come check by check, each check's ascending by arrow,
    pair or triple, and at most ``max_report`` (at least 1) in all.  The
    array shapes come first, then the ids (ranges and sources are units,
    inverses and unit arrows are arrows), then the products of the pairs
    that should compose (arrows or ``UNDEFINED``): a stage that fails ends
    the report, as the later checks index by them.  The other laws are
    whole-array comparisons, and the n^2 definedness mask is built only
    when the count of defined entries or a product of those pairs shows a
    mismatch.  Light's test on a generating set decides associativity once
    every check has passed; otherwise, or when it fails,
    ``_associativity_failures`` lists the failing triples of every middle.
    """
    if max_report < 1:
        raise ValueError(f"max_report must be at least 1, got {max_report}")
    bad: list[str] = []
    failed = 0  # failed checks, also those past max_report

    def note(msg):
        nonlocal failed
        failed += 1
        if len(bad) < max_report:
            bad.append(msg)

    def note_where(*checks):
        """Note per-index checks (failure mask, message of the index) by index, then by check.

        A mask may also be given as its failing indices, ascending."""
        if not any(np.count_nonzero(fails) if fails.dtype == bool else fails.size for fails, _ in checks):
            return
        hits = [set((np.flatnonzero(fails) if fails.dtype == bool else fails)[:max_report].tolist())
                for fails, _ in checks]
        for i in sorted(set().union(*hits))[:max_report]:
            for at, (_, msg) in zip(hits, checks):
                if i in at:
                    note(msg(i))

    n, n_units = g.n_arrows, g.n_units
    ids = np.arange(n)
    table = g.compose_table
    rng, src, inv, e = g.range_of, g.source_of, g.inverse_of, g.unit_arrows
    for name, shape in (("source_of", (n,)), ("inverse_of", (n,)), ("compose_table", (n, n)),
                        ("weights", (n,))):
        if getattr(g, name).shape != shape:
            note(f"{name} has shape {getattr(g, name).shape}, expected {shape}")
    if not failed:
        note_where(
            ((rng < 0) | (rng >= n_units), lambda x: f"arrow {x} has range {rng[x]}, which is not a unit"),
            ((src < 0) | (src >= n_units), lambda x: f"arrow {x} has source {src[x]}, which is not a unit"),
            ((inv < 0) | (inv >= n), lambda x: f"arrow {x} has inverse {inv[x]}, which is not an arrow"),
        )
        note_where(((e < 0) | (e >= n), lambda u: f"unit {u} has unit arrow {e[u]}, which is not an arrow"))
    if not failed:  # the pairs (x, y) that should compose, ascending: x meets the range fiber of source(x)
        by_range, counts, starts = g.range_fibers
        meets = counts[src]
        left = np.repeat(ids, meets)
        right = by_range[np.arange(left.size) + np.repeat(starts[src] - (np.cumsum(meets) - meets), meets)]
        prod = table[left, right]
        note_where(((prod < UNDEFINED) | (prod >= n),
                    lambda k: f"product of ({left[k]}, {right[k]}) is {prod[k]}, which is not an arrow"))
    if failed:
        return ValidationReport(tuple(bad))
    if len(set(e.tolist())) != e.size:
        note("unit arrows are not distinct")
    units = np.arange(n_units)
    note_where(
        ((rng[e] != units) | (src[e] != units),
         lambda u: f"unit arrow {e[u]} of unit {u} has range {rng[e[u]]}, source {src[e[u]]}"),
        (inv[e] != e, lambda u: f"unit arrow {e[u]} is not fixed by inversion"),
    )
    note_where(
        ((rng[inv] != src) | (src[inv] != rng),
         lambda x: f"inverse of {x} swaps range/source incorrectly"),
        (inv[inv] != ids, lambda x: f"inversion is not involutive at {x}"),
    )
    defined = prod != UNDEFINED
    wrong_ends = defined & ((rng[prod] != rng[left]) | (src[prod] != src[right]))
    if defined.all() and np.count_nonzero(table != UNDEFINED) == prod.size:
        mismatch = ids[:0]
    else:  # the n^2 mask only when some pair is defined where it should not be, or not where it should
        mismatch = ((table != UNDEFINED) != (src[:, None] == rng[None, :])).ravel()
    # pairs (x, y) by flat index k = x n + y
    note_where(
        (mismatch,
         lambda k: f"composition of ({k // n}, {k % n}) defined={table.flat[k] != UNDEFINED}, "
         f"expected {src[k // n] == rng[k % n]}"),
        ((left * n + right)[wrong_ends],
         lambda k: f"product {k // n}{k % n}={table.flat[k]} has wrong endpoints"),
    )
    del mismatch
    er, es = e[rng], e[src]
    note_where(
        (table[er, ids] != ids, lambda x: f"left identity fails at arrow {x}"),
        (table[ids, es] != ids, lambda x: f"right identity fails at arrow {x}"),
        (table[inv, ids] != es, lambda x: f"inverse(x).x is not the source unit at arrow {x}"),
        (table[ids, inv] != er, lambda x: f"x.inverse(x) is not the range unit at arrow {x}"),
    )
    # Light's test decides a table that passed every check so far; the scan
    # of every triple lists the failures
    if len(bad) < max_report and (failed or not _light_test(g)):
        for x, y, z in _associativity_failures(g, max_report - len(bad)):
            note(f"associativity fails on ({x}, {y}, {z})")
    for msg in _weight_violations(g, max_report):
        note(msg)
    return ValidationReport(tuple(bad))


def _weight_violations(g: FiniteGroupoid, limit: int) -> list[str]:
    """The first ``limit`` violations of a left Haar system by the weights:
    not finite, not positive, or, arrow by arrow ascending, not within 1e-12
    (relative to the larger of 1 and the source-unit weight) of the weight of
    the arrow's source unit, which left invariance makes it."""
    w = g.weights
    out = [] if np.all(np.isfinite(w)) else ["weights must be finite"]
    if np.any(w <= 0):
        return out + ["weights must be positive"]
    if out:
        return out
    expect = w[g.unit_arrows][g.source_of]
    bad = np.flatnonzero(np.abs(w - expect) > 1e-12 * np.maximum(1.0, np.abs(expect)))
    return [f"Haar weight of arrow {x} is {w[x]}, "
            f"but left invariance needs the source-unit weight {expect[x]}" for x in bad[:limit]]


# ---------------------------------------------------------------------------
# bisections


@dataclass(frozen=True, order=True)
class Bisection:
    """One arrow per unit, ranges and sources each hitting every unit once.

    ``picks[u]`` is the arrow with range u.
    """

    picks: tuple[int, ...]

    def arrows(self) -> frozenset[int]:
        return frozenset(self.picks)


def is_bisection(g: FiniteGroupoid, picks) -> bool:
    picks = np.asarray([int(p) for p in picks])
    if picks.shape != (g.n_units,) or not np.all((picks >= 0) & (picks < g.n_arrows)):
        return False
    picks = picks.astype(int)
    units = np.arange(g.n_units)
    ranges_ok = np.array_equal(g.range_of[picks], units)
    return ranges_ok and np.array_equal(np.sort(g.source_of[picks]), units)


def identity_bisection(g: FiniteGroupoid) -> Bisection:
    return Bisection(tuple(int(e) for e in g.unit_arrows))


def source_permutation(g: FiniteGroupoid, a: Bisection) -> np.ndarray:
    """The unit permutation u -> source(pick(u))."""
    return g.source_of[np.asarray(a.picks, dtype=int)]


def _complete_bisections(g, order, picks, used, out, first_only):
    if not order:
        out.append(tuple(picks[u] for u in range(g.n_units)))
        return first_only
    u = order[0]
    for x in map(int, g.r_fibers[u]):
        s = int(g.source_of[x])
        if used[s]:
            continue
        used[s] = True
        picks[u] = x
        if _complete_bisections(g, order[1:], picks, used, out, first_only):
            return True
        used[s] = False
    return False


def enumerate_bisections(g: FiniteGroupoid) -> list[Bisection]:
    """All bisections, found by backtracking over units ordered by fiber size.

    The result is duplicate-free and canonically ordered (lexicographic in the
    pick tuples), independent of the search order.
    """
    order = sorted(range(g.n_units), key=lambda u: (len(g.r_fibers[u]), u))
    out: list[tuple[int, ...]] = []
    _complete_bisections(g, order, {}, [False] * g.n_units, out, first_only=False)
    return [Bisection(p) for p in sorted(out)]


def bisection_through(g: FiniteGroupoid, x: int) -> Bisection | None:
    """Some bisection containing arrow x, or None when none exists."""
    u0 = int(g.range_of[x])
    s0 = int(g.source_of[x])
    order = sorted((u for u in range(g.n_units) if u != u0), key=lambda u: (len(g.r_fibers[u]), u))
    used = [False] * g.n_units
    used[s0] = True
    out: list[tuple[int, ...]] = []
    _complete_bisections(g, order, {u0: int(x)}, used, out, first_only=True)
    return Bisection(out[0]) if out else None


def bisection_product(g: FiniteGroupoid, a: Bisection, b: Bisection) -> Bisection:
    """Setwise product: the pick at u is a(u) composed with b at source(a(u))."""
    x = np.asarray(a.picks, dtype=int)
    y = np.asarray(b.picks, dtype=int)[g.source_of[x]]
    picks = g.compose_table[x, y]
    if np.any(picks == UNDEFINED):
        u = int(np.argmax(picks == UNDEFINED))
        raise ValueError(f"arrows {x[u]} and {y[u]} do not compose")
    out = Bisection(tuple(picks.tolist()))
    assert is_bisection(g, out.picks)
    return out


def bisection_inverse(g: FiniteGroupoid, a: Bisection) -> Bisection:
    """Inverse arrows of a, reindexed by their ranges."""
    inverses = g.inverse_of[np.asarray(a.picks, dtype=int)]
    picks = np.full(g.n_units, UNDEFINED)
    picks[g.range_of[inverses]] = inverses
    out = Bisection(tuple(picks.tolist()))
    assert is_bisection(g, out.picks)
    return out
