"""The stacked unit-block layer against the per-unit loops it replaced.

Every function that decides or builds something one unit fiber at a time is
compared with its loop version in ``reference.py`` on the conftest fixtures and
on the larger groupoids of the kernels benchmark.
"""

import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest

import gfourier as gf
from conftest import (
    INDEX_READERS,
    _s3,
    forced_arrow_structure,
    random_function,
    random_pd,
    range_weighted_pair3,
    refused_by_the_index,
    s3_on_three_points,
    z12_on_16_points,
)
from gfourier.checks import run_suites
from gfourier.positivity import _integral_kernels, constant_section
from reference import (
    adjoint_op_oracle,
    block_norm_oracle,
    bundle_coefficient_oracle,
    coefficient_oracle,
    convolve_oracle,
    d_inner_loop_oracle,
    gns_bundle_oracle,
    gram_matrix_oracle,
    i_norm_range_oracle,
    i_norm_source_oracle,
    is_positive_definite_oracle,
    isotropy_elements_oracle,
    left_delta_ops_oracle,
    pd_to_section_loop_oracle,
    pd_verdict_integral_oracle,
    pd_verdict_pointset_oracle,
    polar_seed_oracle,
    reduced_norm_loop_oracle,
    right_delta_ops_oracle,
    right_op_blocks_oracle,
    section_norm_oracle,
    stieltjes_problem_oracle,
    translation_maps_oracle,
)


def _permutation_group(perms) -> list:
    """The multiplication table of a list of permutations closed under composition."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[i]] for i in range(len(a)))] for b in perms] for a in perms]


def _dihedral(n) -> list:
    """The rotations and reflections of the regular n-gon, as permutations of its corners."""
    return [tuple((k + s * i) % n for i in range(n)) for s in (1, -1) for k in range(n)]


FIXTURES = ["g2", "g3", "g4", "z2", "z3", "bundle23", "weighted_bundle", "transf", "s3_moved"]
LARGE = {
    # Haar weights that vary within a fiber, unlike those of the fixtures
    "weighted_pair3": lambda: gf.pair_groupoid(3, unit_weights=[1.0, 2.0, 0.5]),
    "pair16": lambda: gf.pair_groupoid(16),
    "bundle30-40-50w": lambda: gf.group_bundle(
        [gf.cyclic_table(k) for k in (30, 40, 50)], unit_weights=[0.5, 1.5, 2.0]),
    "z12-on-16": z12_on_16_points,
    "pair7xI2": lambda: gf.product_with_pair_groupoid(gf.pair_groupoid(7)),
    # orbits with isotropy whose units carry different weights, so the weights
    # vary within each fiber and are transported across the orbit
    "s3-on-3w": lambda: s3_on_three_points(unit_weights=[1.0, 2.0, 0.5]),
    "z12-on-16w": lambda: z12_on_16_points(unit_weights=np.linspace(0.5, 2.0, 16)),
    # the unit arrow last in every fiber, after the other arrows from the base
    "s3-on-3w-moved": lambda: s3_on_three_points(unit_weights=[1.0, 2.0, 0.5], identity_last=True),
    # nonabelian isotropy on an orbit of two units
    "s3xI2": lambda: gf.product_with_pair_groupoid(gf.group_groupoid(_s3()[1])),
    # nonabelian groups with irreducible representations of dimensions 1, 1, 2, 3, 3 (S4) and 1 and 2 (D10)
    "s4": lambda: gf.group_groupoid(_permutation_group(list(itertools.permutations(range(4))))),
    "d10": lambda: gf.group_groupoid(_permutation_group(_dihedral(10))),
}
_built = {}


@pytest.fixture(params=FIXTURES + list(LARGE))
def g(request):
    if request.param in FIXTURES:
        return request.getfixturevalue(request.param)
    if request.param not in _built:
        _built[request.param] = LARGE[request.param]()
    return _built[request.param]


def _rng(g):
    return np.random.default_rng([g.n_arrows, g.n_units])


def _orbit_of_last_unit(g) -> np.ndarray:
    return np.unique(g.source_of[g.r_fibers[g.n_units - 1]])


def _relative(a, b) -> float:
    """The largest difference of a and b relative to the largest modulus of b."""
    return float(np.abs(np.asarray(a) - b).max(initial=0.0) / np.abs(b).max(initial=0.0))


def _close(a, b, tol):
    return np.abs(np.asarray(a) - np.asarray(b)).max(initial=0.0) <= tol * max(
        1.0, float(np.abs(b).max(initial=0.0)))


class TestFiberClasses:
    def test_every_unit_once_with_its_fiber_and_gram_ids(self, g):
        seen = []
        for c in g.fiber_classes:
            assert c.gram.shape == (c.units.size, c.arrows.shape[1], c.arrows.shape[1])
            for i, u in enumerate(c.units):
                fiber = g.r_fibers[u]
                assert np.array_equal(c.arrows[i], fiber)
                assert np.array_equal(c.gram[i], g.compose_table[np.ix_(g.inverse_of[fiber], fiber)])
            seen += c.units.tolist()
        assert sorted(seen) == list(range(g.n_units))

    def test_undefined_product_is_named(self):
        # arrow 3 (0 <- 1) is its own claimed inverse, and 3 . 0 is undefined
        g = forced_arrow_structure()
        with pytest.raises(gf.UndefinedProductError,
                           match=r"^arrows 3 = inverse\(3\) and 0 do not compose$"):
            g.composable_pairs
        for call in (lambda: gf.convolve(g, np.ones(4), np.ones(4)), lambda: gf.vn_basis(g),
                     lambda: g.fiber_classes, lambda: gf.is_positive_definite(g, np.ones(4))):
            with pytest.raises(gf.UndefinedProductError, match="inverse"):
                call()

    def test_suites_report_the_undefined_product(self):
        records = run_suites(forced_arrow_structure(), ["axioms", "regular-rep", "positivity"])
        names = [r.name for r in records]
        assert names[0] == "axioms/validate" and records[0].status == "fail"
        assert names[-2:] == ["regular/composable-pairs", "positivity/composable-pairs"]
        for r in records[-2:]:
            assert r.status == "fail" and r.witness == "arrows 3 = inverse(3) and 0 do not compose"


def _orbit_count(g) -> int:
    """Units that are the smallest source of the arrows into them: one per orbit."""
    return sum(int(g.source_of[fiber].min()) == u for u, fiber in enumerate(g.r_fibers))


class TestFiberClassOrbits:
    def test_every_unit_is_a_permuted_copy_of_its_base(self, g):
        bases = 0
        for c in g.fiber_classes:
            k, m = c.arrows.shape
            assert np.array_equal(c.orbit[c.bases], np.arange(c.bases.size))
            assert np.all(np.diff(c.bases) > 0) and c.alone == (c.bases.size == k)
            bases += c.bases.size
            for i in range(k):
                b, p = c.bases[c.orbit[i]], c.perm[i]
                assert c.units[b] == g.source_of[g.r_fibers[c.units[i]]].min()
                a = c.arrows[i, c.transport[i]]
                assert g.source_of[a] == c.units[b] and g.range_of[a] == c.units[i]
                assert np.array_equal(np.sort(p), np.arange(m))
                assert np.array_equal(c.gram[i], c.gram[b][np.ix_(p, p)])
                assert np.array_equal(g.weights[c.arrows[i]], g.weights[c.arrows[b]][p])
                assert c.arrows[b, c.home[i]] == g.inverse_of[a]
                assert c.home[i] == p[list(c.arrows[i]).index(g.unit_arrows[c.units[i]])]
                if i == b:
                    # a base is carried by its unit arrow
                    assert a == g.unit_arrows[c.units[i]] == c.arrows[i, c.home[i]]
                    assert np.array_equal(p, np.arange(m))
        assert bases == _orbit_count(g)

    def test_weights_that_are_not_left_invariant_are_refused_by_the_index(self):
        g = range_weighted_pair3()
        first = gf.validate(g).violations[0]
        assert first.startswith("Haar weight of arrow 1 is 1.0, but left invariance")
        for index in ("fiber_classes", "isotropy_blocks"):
            with refused_by_the_index(g):
                getattr(g, index)
        rng = _rng(g)
        # positive definite on pair(3) whatever the weights
        phi, f = random_pd(gf.pair_groupoid(3), rng), random_function(g, rng)
        with refused_by_the_index(g):
            gf.reduced_norm(g, f)
        # the loop oracles, which read no index, still answer
        assert np.isfinite(reduced_norm_loop_oracle(g, f))
        for verdict, oracle in VERDICTS:
            for x in (phi, phi - 10.0 * (1 + np.abs(phi).max()) * gf.delta(g, g.unit_arrows[2])):
                with refused_by_the_index(g):
                    verdict(g, x)
                assert bool(oracle(g, x)) == (x is phi)
        for construct in (gf.gns_bundle, gf.fourier_stieltjes_norm):
            with refused_by_the_index(g):
                construct(g, phi)
        with refused_by_the_index(g):
            gf.norms._bases(g)

    @pytest.mark.parametrize("build", [range_weighted_pair3, lambda: _relabelled(
        gf.product_with_pair_groupoid(gf.group_groupoid(gf.cyclic_table(3))), np.random.default_rng(1).permutation(12))])
    def test_constructions_that_need_left_invariance_refuse_other_weights(self, build):
        # phi is positive definite whatever the weights; on the relabelled
        # Z3 x pair(2), whose orbit's fibers are not numbered alike, the bundle
        # built from such weights was off by 0.43 of max|phi|
        g = build()
        f = random_function(g, np.random.default_rng(1))
        phi = gf.regular_coefficient(dataclasses.replace(g, weights=np.ones(g.n_arrows)), f, f)
        for reader in INDEX_READERS.values():
            with refused_by_the_index(g):
                reader(g, phi)
        for _, oracle in VERDICTS:
            assert oracle(g, phi)


def _nudged_pair2(factor):
    """pair(2) with the Haar weight of arrow 1 = (0, 1) times factor."""
    g = gf.pair_groupoid(2)
    weights = g.weights.copy()
    weights[1] *= factor
    return dataclasses.replace(g, weights=weights)


def _rel_close(got, want, rel=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.abs(got - want).max(initial=0.0)) <= rel * max(float(np.abs(want).max(initial=0.0)), 1e-300)


class TestHaarContract:
    """One threshold, ``validate``'s 1e-12 relative, decides which weights are
    a left Haar system, for ``validate`` and for the orbit index alike; the
    formula-level functions read no index and answer on any positive weights."""

    def test_weights_within_the_threshold_are_a_haar_system(self):
        g, plain = _nudged_pair2(1 + 4e-16), gf.pair_groupoid(2)
        assert g.weights[1] == 1.0000000000000004
        assert gf.validate(g).ok and g.counting
        assert [c.bases.size for c in g.fiber_classes] == [1]
        rng = np.random.default_rng(32)
        for phi in (random_pd(plain, rng), random_function(plain, rng), random_function(plain, rng).real):
            got, want = gf.is_positive_definite(g, phi), gf.is_positive_definite(plain, phi)
            assert got.is_pd == want.is_pd and got.unit == want.unit
            if not want:
                assert _rel_close(got.value, want.value) and _rel_close(got.vector, want.vector)
            else:
                (bundle, xi), (bundle0, xi0) = gf.gns_bundle(g, phi), gf.gns_bundle(plain, phi)
                assert bundle.dims == bundle0.dims
                assert all(_rel_close(a, b) for a, b in zip(xi.vectors, xi0.vectors))
                assert _rel_close(gf.pd_to_section(g, phi), gf.pd_to_section(plain, phi))
            for got, want in zip(gf.fourier_norm_bounds(g, phi), gf.fourier_norm_bounds(plain, phi)):
                assert _rel_close(got.value, want.value)
            assert _rel_close(gf.reduced_norm(g, phi), gf.reduced_norm(plain, phi))

    def test_weights_past_the_threshold_are_refused_everywhere(self):
        g = _nudged_pair2(1 + 1e-11)
        assert not g.counting
        (first,) = gf.validate(g).violations
        assert first.startswith("Haar weight of arrow 1 is 1.00000000001, but left invariance")
        for index in ("fiber_classes", "isotropy_blocks"):
            with refused_by_the_index(g):
                getattr(g, index)
        phi = random_pd(gf.pair_groupoid(2), np.random.default_rng(32))
        for reader in INDEX_READERS.values():
            with refused_by_the_index(g):
                reader(g, phi)

    def test_formula_level_functions_answer_without_the_index(self):
        g = range_weighted_pair3()
        assert not gf.validate(g).ok
        rng = np.random.default_rng(32)
        f, h = random_function(g, rng), random_function(g, rng)
        assert _rel_close(gf.convolve(g, f, h), convolve_oracle(g, f, h), 1e-12)
        assert np.array_equal(gf.star(g, gf.star(g, f)), f)
        assert _rel_close(gf.regular_coefficient(g, f, h), coefficient_oracle(g, f, h), 1e-12)
        for ops, oracle in ((gf.right_delta_ops, right_delta_ops_oracle), (gf.left_delta_ops, left_delta_ops_oracle)):
            assert all(np.array_equal(a, b) for a, b in zip(ops(g), oracle(g), strict=True))
        assert len(gf.vn_basis(g)) == len(gf.commutant(gf.right_delta_ops(g), g.n_arrows)) == 3


def _relabelled(g, new):
    """g with arrow x renamed new[x], and Haar weights 0.5 .. 2.0 of the range
    unit, which are not left invariant."""
    x, y = np.nonzero(g.compose_table != gf.groupoid.UNDEFINED)
    table = np.full_like(g.compose_table, gf.groupoid.UNDEFINED)
    table[new[x], new[y]] = new[g.compose_table[x, y]]
    moved = [np.empty_like(a) for a in (g.range_of, g.source_of, g.inverse_of)]
    for a, old in zip(moved, (g.range_of, g.source_of, new[g.inverse_of])):
        a[new] = old
    return gf.FiniteGroupoid(*moved, table, new[g.unit_arrows], np.linspace(0.5, 2.0, g.n_units)[moved[0]])


# orbits whose unit arrows come last in their fibers, and orbits of two units
# with Z2 and Z3 isotropy
ISOTROPY_ZOO = {
    "s3-on-3-moved": lambda: s3_on_three_points(identity_last=True),
    "z2+z3xI2": lambda: gf.product_with_pair_groupoid(
        gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)])),
}


@pytest.fixture(params=FIXTURES + list(LARGE) + list(ISOTROPY_ZOO))
def ig(request):
    if request.param in FIXTURES:
        return request.getfixturevalue(request.param)
    if request.param not in _built:
        _built[request.param] = {**LARGE, **ISOTROPY_ZOO}[request.param]()
    return _built[request.param]


class TestIsotropyElements:
    """The element tables of ``FiberClass`` against the composition table."""

    def test_every_arrow_carries_its_element(self, ig):
        g = ig
        base, elements = isotropy_elements_oracle(g)
        seen = []
        for c in g.fiber_classes:
            k, m = c.arrows.shape
            for i in range(k):
                for p in range(m):
                    j = c.element[i, p]
                    assert c.element_base[j] == c.orbit[i]
                    b = c.bases[c.element_base[j]]
                    assert c.units[b] == base[c.units[i]]
                    # element j is the inverse of the base-fiber arrow at its place
                    assert g.inverse_of[c.arrows[b, c.element_place[j]]] == elements[c.arrows[i, p]]
            seen += c.arrows.ravel().tolist()
        assert sorted(seen) == list(range(g.n_arrows))

    def test_translation_rows_move_the_base_fiber_as_h_does(self, ig):
        g = ig
        for c in g.fiber_classes:
            m = c.arrows.shape[1]
            assert c.translation.shape == (c.element_base.size, m)
            for j, (k, place) in enumerate(zip(c.element_base, c.element_place)):
                fiber = c.arrows[c.bases[k]].tolist()
                h = g.inverse_of[fiber[place]]
                # T_h = np.eye(m)[rows] takes the point mass at y_q to the one at h y_q
                moved = [fiber.index(g.compose_table[h, y]) for y in fiber]
                assert np.array_equal(np.eye(m)[c.translation[j]], np.eye(m)[:, moved])

    def test_a_bases_elements_are_its_isotropy_arrows(self, ig):
        g = ig
        for c in g.fiber_classes:
            m = c.arrows.shape[1]
            # base by base, each base's by place
            assert np.all(np.diff(c.element_base * m + c.element_place) > 0)
            for k, b in enumerate(c.bases):
                isotropy = np.flatnonzero(g.source_of[c.arrows[b]] == c.units[b])
                assert np.array_equal(c.element_place[c.element_base == k], isotropy)


class TestOnePerOrbit:
    @pytest.mark.parametrize("build", [lambda: gf.pair_groupoid(16), z12_on_16_points])
    def test_each_stacked_call_holds_one_matrix_per_orbit(self, build, monkeypatch):
        g = build()
        rng = _rng(g)
        phi, f = random_pd(g, rng), random_function(g, rng)
        g.isotropy_blocks  # built before the spies, with the eigh calls that find the blocks
        calls = _spy_on_linalg(monkeypatch)
        for verdict, _ in VERDICTS:
            assert verdict(g, phi)
        gf.gns_bundle(g, phi)
        gf.pd_to_section(g, phi)
        gf.reduced_norm(g, f)
        # one fiber class, whose units fall into one orbit (pair16) or two (Z12 on 16 points)
        assert len(g.fiber_classes) == 1
        assert {name for name, _ in calls} == {"eigh", "svd"}
        # the Z3 orbit of Z12 on 16 points has four units, so its 12x12 block is
        # decomposed whole, with the free orbit's
        assert all(len(shape) == 3 and shape[0] == _orbit_count(g) for _, shape in calls), calls

    @pytest.mark.parametrize("build", [lambda: gf.pair_groupoid(16), z12_on_16_points])
    def test_constructions_decompose_only_in_the_verdict(self, build, monkeypatch):
        # gns_bundle and pd_to_section factor each base by the eigh that decides
        # it: exactly the eigh calls of the verdict's stacks
        g = build()
        phi = random_pd(g, _rng(g))
        g.isotropy_blocks  # built before the spies, with the eigh calls that find the blocks
        calls = _spy_on_linalg(monkeypatch)
        verdict_calls = _class_eigh_calls(g, phi, calls)
        for build_from in (gf.is_positive_definite, gf.gns_bundle, gf.pd_to_section):
            calls.clear()
            build_from(g, phi)
            assert calls == verdict_calls, build_from

    @pytest.mark.parametrize("build", [lambda: gf.pair_groupoid(16), z12_on_16_points])
    def test_a_failing_verdict_decides_and_witnesses_by_one_eigh_per_stack(self, build, monkeypatch):
        # the witness is an eigenvector of the decomposition that decides: no
        # second one for the failing base, and no eigvalsh
        g = build()
        phi = _verdict_inputs(g)["not-pd"]
        want = is_positive_definite_oracle(g, phi)
        g.isotropy_blocks
        calls = _spy_on_linalg(monkeypatch)
        verdict_calls = _class_eigh_calls(g, phi, calls)
        calls.clear()
        got = gf.is_positive_definite(g, phi)
        assert calls == verdict_calls
        assert not got and got.unit == want.unit

    @pytest.mark.parametrize("build", [
        lambda: gf.pair_groupoid(2),
        lambda: gf.pair_groupoid(16),
        lambda: gf.pair_groupoid(3, unit_weights=[1.0, 2.0, 0.5]),
    ])
    def test_pair_groupoid_maps_are_one_shared_read_only_identity(self, build):
        g = build()
        bundle, xi = gf.gns_bundle(g, random_pd(g, _rng(g)))
        d = bundle.dims[0]
        assert set(bundle.dims) == {d}
        assert all(np.abs(m - np.eye(d)).max() <= 1e-12 for m in bundle.maps)
        assert len({id(m) for m in bundle.maps}) == 1
        with pytest.raises(ValueError, match="read-only"):
            bundle.maps[0][0, 0] = 0.0

    def test_maps_are_shared_per_isotropy_element(self):
        # the orbit of 12 units is free and the orbit of 4 has isotropy Z3: one
        # map for the first and three for the second, whatever the arrow
        g = z12_on_16_points()
        bundle, _ = gf.gns_bundle(g, random_pd(g, _rng(g)))
        assert len({id(m) for m in bundle.maps}) == 1 + 3
        assert not any(m.flags.writeable for m in bundle.maps)

    def test_pair_48_within_budget(self):
        # the stack of one map per arrow took 0.25 s and peaked at 94 MB here
        g = gf.pair_groupoid(48)
        phi = random_pd(g, _rng(g))
        calls = (lambda: gf.gns_bundle(g, phi), lambda: gf.pd_to_section(g, phi))
        for call in calls:
            call()  # builds the cached indexes of g
        cpu = []
        for _ in range(3):
            start = time.process_time()
            for call in calls:
                call()
            cpu.append(time.process_time() - start)
        assert min(cpu) <= 0.1
        for call in calls:
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4e6


def _class_eigh_calls(g, phi, calls) -> list:
    """The calls that one stacked eigh per fiber class of the shifted Gram
    stacks of g's orbit bases adds to the spied ``calls``: the whole
    matrices, as no base of pair(16) or Z12 on 16 points takes the row path."""
    start = len(calls)
    for c in g.fiber_classes:
        gram = phi[c.gram[c.rows]]
        np.linalg.eigh((gram + gram.conj().swapaxes(1, 2)) / 2)
    got = calls[start:]
    # the whole 16x16 of pair(16); the whole 12x12 of the free orbit and of the Z3 orbit
    m = g.r_fibers[0].size
    assert [shape for _, shape in got] == [(_orbit_count(g), m, m)]
    assert {name for name, _ in got} == {"eigh"}
    return got


def _spy_on_linalg(monkeypatch) -> list:
    """The (name, shape of the stack) of every eigh, eigvalsh and svd call from now on."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def spy(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


NONSINGULAR = {name: LARGE[name] for name in ("bundle30-40-50w", "z12-on-16", "pair7xI2")}


def _exact_permutation(a) -> bool:
    """Entries 0 or 1 exactly, with one 1 in every row and column."""
    ones = a == 1
    return (bool(np.all(ones | (a == 0))) and a.shape[0] == a.shape[1]
            and bool(np.all(ones.sum(axis=0) == 1)) and bool(np.all(ones.sum(axis=1) == 1)))


class TestTranslationMaps:
    """On an orbit whose kernel has full rank every map is its isotropy translation."""

    @pytest.mark.parametrize("name", list(NONSINGULAR))
    def test_maps_are_exact_permutations(self, name):
        g = NONSINGULAR[name]()
        phi = random_pd(g, _rng(g))
        bundle, xi = gf.gns_bundle(g, phi)
        assert bundle.dims == tuple(fiber.size for fiber in g.r_fibers)
        assert all(_exact_permutation(a) for a in bundle.maps)
        assert not any(a.flags.writeable for a in bundle.maps)
        assert _close(gf.coefficient(g, bundle, xi, xi), phi, 1e-10)

    @pytest.mark.parametrize("name", list(LARGE))
    def test_maps_are_the_translation_matrices_bit_for_bit(self, name):
        # on an orbit of full rank the map of an arrow is np.eye(m)[back], the
        # 0/1 matrix that the bundle wrote per isotropy element before it kept
        # permutation rows, read here one arrow at a time
        g = LARGE[name]()
        bundle, _ = gf.gns_bundle(g, random_pd(g, _rng(g)))
        want = translation_maps_oracle(g)
        full = [x for x in range(g.n_arrows) if bundle.dims[g.range_of[x]] == g.r_fibers[g.range_of[x]].size]
        assert full
        for x in full:
            assert bundle.maps[x].dtype == want[x].dtype and np.array_equal(bundle.maps[x], want[x]), x

    @pytest.mark.parametrize("name", list(NONSINGULAR))
    def test_bundle_axioms_hold_exactly(self, name):
        g = NONSINGULAR[name]()
        maps = gf.gns_bundle(g, random_pd(g, _rng(g)))[0].maps
        x, t, y, _ = g.composable_pairs
        for a, b, c in zip(x, t, y):
            assert np.array_equal(maps[a], maps[b] @ maps[c])
        for a in range(g.n_arrows):
            assert np.array_equal(maps[g.inverse_of[a]], maps[a].conj().T)
        for e in g.unit_arrows:
            assert np.array_equal(maps[e], np.eye(maps[e].shape[0]))

    def test_full_and_deficient_orbits_in_one_fiber_class(self):
        # on Z4: the trivial character (rank 1), the point mass (rank 4), two characters (rank 2)
        g = gf.group_bundle([gf.cyclic_table(4)] * 3, unit_weights=[1, 2, 0.5])
        phi = np.array([1, 1, 1, 1, 1, 0, 0, 0, 2, 0, 2, 0])
        bundle, xi = gf.gns_bundle(g, phi)
        want, _ = gns_bundle_oracle(g, phi)
        assert len(g.fiber_classes) == 1
        assert bundle.dims == want.dims == (1, 4, 2)
        assert all(_exact_permutation(bundle.maps[x]) for x in g.r_fibers[1])
        # the rank-deficient orbits keep C T_h C^+: unitary, with the oracle's
        # character (the eigenbasis of a repeated eigenvalue is not unique)
        for x in np.concatenate([g.r_fibers[0], g.r_fibers[2]]):
            a = bundle.maps[x]
            assert np.abs(a @ a.conj().T - np.eye(a.shape[0])).max() <= 1e-12
            assert abs(np.trace(a) - np.trace(want.maps[x])) <= 1e-12
        assert _close(gf.coefficient(g, bundle, xi, xi), phi, 1e-10)


class TestCoefficientSharing:
    """``coefficient`` against the oracle's one product per arrow, to 1e-14
    relative, whatever is shared: permutation stacks, matrix stacks and
    stacks of several shapes."""

    def _sections(self, g, dims):
        rng = _rng(g)
        return [gf.BundleSection(tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d)
                                       for d in dims)) for _ in range(2)]

    @pytest.mark.parametrize("build", [lambda: gf.pair_groupoid(16), z12_on_16_points,
                                       NONSINGULAR["bundle30-40-50w"]] + [
        build for name, build in LARGE.items() if name not in ("pair16", "z12-on-16", "bundle30-40-50w")])
    def test_shared_maps_and_their_copies(self, build):
        g = build()
        bundle, _ = gf.gns_bundle(g, random_pd(g, _rng(g)))
        xi, eta = self._sections(g, bundle.dims)
        # equal values held as distinct objects share no work but give the same values
        copies = gf.GHilbertBundle(bundle.dims, tuple(a.copy() for a in bundle.maps))
        assert len({id(a) for a in copies.maps}) == g.n_arrows
        for b in (bundle, copies):
            for left, right in ((xi, xi), (xi, eta), (eta, xi)):
                assert _relative(gf.coefficient(g, b, left, right),
                                 bundle_coefficient_oracle(g, b, left, right)) <= 1e-14

    def test_peak_memory_stays_near_the_stacks(self):
        # the bundle that held one 0/1 matrix per isotropy element peaked at
        # 2.1 MB here; its maps as tuple are not read
        g = NONSINGULAR["bundle30-40-50w"]()
        phi = random_pd(g, _rng(g))
        bundle, xi = gf.gns_bundle(g, phi)  # builds the cached indexes of g
        tracemalloc.start()
        try:
            bundle, xi = gf.gns_bundle(g, phi)
            gf.coefficient(g, bundle, xi, xi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.6e6
        assert bundle._maps is None and bundle.maps is bundle.maps

    def test_trivial_bundle_is_one_identity_permutation(self, g3):
        bundle = gf.trivial_bundle(g3, 2)
        assert len(bundle.stacks) == 1 and len({id(a) for a in bundle.maps}) == 1
        assert np.array_equal(bundle.maps[0], np.eye(2))
        xi = constant_section(g3, bundle, 1 + 1j)
        assert np.array_equal(gf.coefficient(g3, bundle, xi, xi), np.full(g3.n_arrows, 4.0))

    def test_all_distinct_maps_of_mixed_shapes(self):
        # fibers of dimension 1 on the free orbit and 3 on the orbit with isotropy
        g = z12_on_16_points()
        dims = (1,) * 12 + (3,) * 4
        rng = _rng(g)
        maps = tuple(rng.standard_normal((dims[r], dims[s])) + 1j * rng.standard_normal((dims[r], dims[s]))
                     for r, s in zip(g.range_of, g.source_of))
        bundle = gf.GHilbertBundle(dims, maps)
        xi, eta = self._sections(g, dims)
        assert _relative(gf.coefficient(g, bundle, xi, eta),
                         bundle_coefficient_oracle(g, bundle, xi, eta)) <= 1e-14

    def test_one_map_object_of_each_shape(self):
        g = gf.pair_groupoid(5)
        dims = (2, 2, 3, 2, 3)
        shared = {(r, c): np.arange(r * c).reshape(r, c) * (1 - 0.5j) for r in (2, 3) for c in (2, 3)}
        bundle = gf.GHilbertBundle(dims, tuple(shared[dims[r], dims[s]]
                                               for r, s in zip(g.range_of, g.source_of)))
        xi, eta = self._sections(g, dims)
        assert _relative(gf.coefficient(g, bundle, xi, eta),
                         bundle_coefficient_oracle(g, bundle, xi, eta)) <= 1e-14


class TestKernelsAgainstLoops:
    def test_blocks_and_fiber_sums(self, g):
        rng = _rng(g)
        f, h = random_function(g, rng), random_function(g, rng)
        for u in range(g.n_units):
            assert np.array_equal(gf.gram_matrix(g, f, u), gram_matrix_oracle(g, f, u))
        assert _close(gf.reduced_norm(g, f), reduced_norm_loop_oracle(g, f), 1e-12)
        assert _close(gf.d_inner(g, f, h), d_inner_loop_oracle(g, f, h), 1e-12)
        assert _close(gf.section_norm(g, f), section_norm_oracle(g, f), 1e-12)
        assert _close(gf.i_norm_range(g, f), i_norm_range_oracle(g, f), 1e-12)
        assert _close(gf.i_norm_source(g, f), i_norm_source_oracle(g, f), 1e-12)

    def test_adjoint_and_operator_norm(self, g):
        rng = _rng(g)
        op = gf.right_op(g, random_function(g, rng)) + gf.left_op(g, random_function(g, rng))
        op[g.range_of[:, None] != g.range_of[None, :]] = 0.0
        assert np.array_equal(gf.adjoint_op(g, op), adjoint_op_oracle(g, op))
        assert _close(gf.operator_norm(g, op), block_norm_oracle(g, gf.unit_blocks(g, op)), 1e-12)

    @pytest.mark.parametrize("pd", [True, False])
    def test_polar_seed(self, g, pd, monkeypatch):
        # the scaling's uniform evaluation, alone when no further step is allowed
        monkeypatch.setattr(gf.norms, "_MAX_ITER", 0)
        rng = _rng(g)
        phi = random_pd(g, rng) if pd else random_function(g, rng)
        sup = float(np.abs(phi).max())
        bases = gf.norms._bases(g)
        scaled = gf.norms._scaled_completion(bases, phi, sup)
        seed = gf.norms._average(bases, scaled.completion).ravel()
        want, sigma = polar_seed_oracle(g, phi)
        # the oracle's ("r", c) and ("t", c) are the variable ids c and c + n_arrows
        key_id = {key: key[1] + (g.n_arrows if key[0] == "t" else 0) for key in want}
        assert seed.shape == (2 * g.n_arrows,) and len(want) == 2 * np.sum(
            np.arange(g.n_arrows) <= g.inverse_of)
        assert _close(seed[list(key_id.values())], list(want.values()), 1e-12)
        # PSD on the block of every unit, not only those of the orbits' first units
        scale = float(np.abs(phi).max())
        blocks = stieltjes_problem_oracle(g, phi).blocks_for(
            {key: seed[c] for key, c in key_id.items()})
        assert len(blocks) == g.n_units
        assert min(float(np.linalg.eigvalsh(b)[0]) for b in blocks) >= -1e-12 * scale
        value = float(np.concatenate([seed[g.unit_arrows], seed[g.unit_arrows + g.n_arrows]]).real.max())
        assert value <= sigma * (1 + 1e-12)
        if pd:
            assert value == pytest.approx(phi[g.unit_arrows].real.max(), rel=1e-12)


VERDICTS = [
    (gf.is_positive_definite, is_positive_definite_oracle),
    (gf.pd_verdict_pointset, pd_verdict_pointset_oracle),
    (gf.pd_verdict_integral, pd_verdict_integral_oracle),
]


def _verdict_inputs(g):
    """Positive definite; failing on the orbit of the last unit (so after unit 0
    unless g is transitive); non-Hermitian there; non-Hermitian everywhere."""
    rng = _rng(g)
    phi = random_pd(g, rng)
    orbit = np.zeros(g.n_arrows)
    orbit[g.unit_arrows[_orbit_of_last_unit(g)]] = 1.0
    big = 10.0 * (1.0 + np.abs(phi).max() * max(f.size for f in g.r_fibers))
    return {
        "pd": phi,
        "not-pd": phi - big * orbit,
        "non-hermitian-orbit": phi + 0.5j * orbit,
        "non-hermitian": random_function(g, rng),
    }


class TestVerdictsAgainstLoops:
    @pytest.mark.parametrize("kind", ["pd", "not-pd", "non-hermitian-orbit", "non-hermitian"])
    @pytest.mark.parametrize("which", range(3))
    def test_same_verdict_unit_and_witness(self, g, kind, which):
        phi = _verdict_inputs(g)[kind]
        verdict, oracle = VERDICTS[which]
        got, want = verdict(g, phi), oracle(g, phi)
        assert got.is_pd == want.is_pd == (kind == "pd")
        assert got.unit == want.unit
        if kind == "not-pd" and which == 0 and got.unit in _row_units(g):
            # a column of F_b: in the oracle's lowest eigenspace, in another
            # basis or phase
            a = gram_matrix_oracle(g, phi, got.unit)
            a = (a + a.conj().T) / 2
            low = np.linalg.eigvalsh(a)[0]
            v = got.vector
            assert abs(np.linalg.norm(v) - 1) <= 1e-12
            assert np.linalg.norm(a @ v - low * v) <= 1e-12 * np.abs(a).max() * a.shape[0]
        elif kind != "pd":
            assert np.abs(got.vector - want.vector).max() <= 1e-12
        if kind != "pd":
            assert abs(got.value - want.value) <= 1e-12 * max(1.0, abs(want.value))
        if kind in ("not-pd", "non-hermitian-orbit"):
            assert got.unit == _orbit_of_last_unit(g).min()

    def test_a_failure_after_unit_0_is_covered(self):
        g = z12_on_16_points()
        assert is_positive_definite_oracle(g, _verdict_inputs(g)["not-pd"]).unit == 12

    def test_a_zero_pivot_fails_the_inertia_verdicts(self):
        # phi(e) = -delta makes the shifted Gram matrix 0, whose first pivot is 0
        g = gf.group_groupoid(gf.cyclic_table(2))
        phi = np.array([-gf.positivity.PSD_TOL, 0.0])
        for verdict, oracle in VERDICTS[1:]:
            got, want = verdict(g, phi), oracle(g, phi)
            assert not got and not want and got.unit == want.unit == 0
            assert np.array_equal(got.vector, want.vector)

    @pytest.mark.parametrize("which", range(3))
    @pytest.mark.parametrize("build, hermitian, negative", [
        # one fiber class of three Z3 bases, and the free orbit (base 0) and Z3 orbit (base 12)
        (lambda: gf.group_bundle([gf.cyclic_table(3)] * 3), 1, 2),
        (z12_on_16_points, 0, 12),
    ])
    def test_an_earlier_non_hermitian_base_fails_before_a_later_negative_one(
            self, which, build, hermitian, negative):
        # the stack is decided whole: the later base, not positive definite,
        # must not take the verdict from the earlier one, not Hermitian
        g = build()
        assert len(g.fiber_classes) == 1
        phi = random_pd(g, _rng(g))
        phi[g.unit_arrows[negative]] -= 10.0 * (1.0 + np.abs(phi).max() * max(f.size for f in g.r_fibers))
        phi[g.unit_arrows[hermitian]] += 0.5j * np.abs(phi).max()
        verdict, oracle = VERDICTS[which]
        got, want = verdict(g, phi), oracle(g, phi)
        assert got.unit == want.unit == hermitian
        assert np.abs(got.vector - want.vector).max() <= 1e-12
        assert abs(got.value - want.value) <= 1e-12 * max(1.0, abs(want.value))

    @pytest.mark.parametrize("which", range(3))
    def test_first_failure_across_interleaved_fiber_classes(self, which):
        # units 0, 2 have fibers of size 2 and units 1, 3 of size 3; the first
        # class fails at unit 2, but the first failing unit is 1, in the second
        g = gf.group_bundle([gf.cyclic_table(k) for k in (2, 3, 2, 3)])
        phi = random_pd(g, _rng(g))
        phi[g.unit_arrows[[1, 2]]] -= 100.0
        verdict, oracle = VERDICTS[which]
        got, want = verdict(g, phi), oracle(g, phi)
        assert got.unit == want.unit == 1
        assert np.abs(got.vector - want.vector).max() <= 1e-12


class TestReconstructionsAgainstLoops:
    def test_gns_and_square_root(self, g):
        phi = random_pd(g, _rng(g))
        bundle, xi = gf.gns_bundle(g, phi)
        want_bundle, want_xi = gns_bundle_oracle(g, phi)
        assert bundle.dims == want_bundle.dims
        back = gf.coefficient(g, bundle, xi, xi)
        assert _relative(back, phi) <= 1e-12
        assert _close(back, bundle_coefficient_oracle(g, bundle, xi, xi), 1e-12)
        assert _close(gf.coefficient(g, want_bundle, want_xi, want_xi), phi, 1e-10)
        if np.all(g.weights == 1.0):
            section = gf.pd_to_section(g, phi)
            assert _close(section, pd_to_section_loop_oracle(g, phi), 1e-10)
            assert _relative(gf.regular_coefficient(g, section, section), phi) <= 1e-12

    @pytest.mark.parametrize("build, phi", [
        # constant 1 on the first Z3 (rank 1), the unit point mass on the second (rank 3)
        (lambda: gf.group_bundle([gf.cyclic_table(3)] * 2), [1, 1, 1, 1, 0, 0]),
        # on Z4: the trivial character (rank 1), the point mass (rank 4), two characters (rank 2)
        (lambda: gf.group_bundle([gf.cyclic_table(4)] * 3, unit_weights=[1, 2, 0.5]),
         [1, 1, 1, 1, 1, 0, 0, 0, 2, 0, 2, 0]),
    ])
    def test_mixed_ranks_in_one_fiber_class(self, build, phi):
        g = build()
        assert len(g.fiber_classes) == 1
        bundle, xi = gf.gns_bundle(g, phi)
        want_bundle, _ = gns_bundle_oracle(g, phi)
        assert bundle.dims == want_bundle.dims and len(set(bundle.dims)) == len(bundle.dims)
        assert [m.shape for m in bundle.maps] == [m.shape for m in want_bundle.maps]
        assert _relative(gf.coefficient(g, bundle, xi, xi), phi) <= 1e-12
        other = gf.BundleSection(tuple(v * (1 + 1j) for v in xi.vectors))
        assert _close(gf.coefficient(g, bundle, xi, other),
                      bundle_coefficient_oracle(g, bundle, xi, other), 1e-12)

    def test_rank_threshold_is_relative_to_the_largest_eigenvalue(self):
        # Gram eigenvalues 3e6 + 1e-4 and 1e-4 (twice): the small ones are
        # below tol * 3e6, so the GNS fiber has dimension 1
        g = gf.group_groupoid(gf.cyclic_table(3))
        phi = np.array([1e6 + 1e-4, 1e6, 1e6])
        bundle, xi = gf.gns_bundle(g, phi)
        assert bundle.dims == gns_bundle_oracle(g, phi)[0].dims == (1,)
        assert _close(gf.coefficient(g, bundle, xi, xi), phi, 1e-10)

    def test_z12_with_isotropy_has_mixed_ranks(self):
        # point masses at the units 0 and 12: rank 1 on the free orbit, where one
        # arrow of each fiber has source 0, and rank 3 on the orbit with isotropy Z3
        g = z12_on_16_points()
        f = 1.0 * gf.delta(g, g.unit_arrows[0]) + 2.0 * gf.delta(g, g.unit_arrows[12])
        phi = gf.regular_coefficient(g, f, f)
        bundle, xi = gf.gns_bundle(g, phi)
        assert len(g.fiber_classes) == 1
        assert bundle.dims == gns_bundle_oracle(g, phi)[0].dims == (1,) * 12 + (3,) * 4
        assert _close(gf.coefficient(g, bundle, xi, xi), phi, 1e-10)

    @pytest.mark.parametrize("name, unit, dims", [
        ("z12-on-16", 0, (1,) * 12 + (0,) * 4),
        ("bundle30-40-50w", 1, (0, 40, 0)),
    ])
    def test_an_orbit_where_phi_is_zero_has_rank_0(self, name, unit, dims):
        # the verdict shifts a zero Gram matrix by 1, and its eigenvalues, whole
        # or on the row path, are 1 up to rounding: what is left once the shift
        # is taken off is not rank
        g = LARGE[name]()
        f = gf.delta(g, g.unit_arrows[unit])
        phi = gf.regular_coefficient(g, f, f)
        bundle, xi = gf.gns_bundle(g, phi)
        assert bundle.dims == gns_bundle_oracle(g, phi)[0].dims == dims
        assert _relative(gf.coefficient(g, bundle, xi, xi), phi) <= 1e-12

    def test_coefficient_rejects_a_map_of_the_wrong_shape(self, g3):
        bundle, xi = gf.gns_bundle(g3, random_pd(g3, _rng(g3)))
        maps = list(bundle.maps)
        maps[4] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="map of arrow 4"):
            gf.coefficient(g3, gf.GHilbertBundle(bundle.dims, tuple(maps)), xi, xi)

    def test_coefficient_rejects_sections_and_map_tuples_of_the_wrong_size(self, g3):
        bundle, xi = gf.gns_bundle(g3, random_pd(g3, _rng(g3)))
        vectors = list(xi.vectors)
        vectors[1] = np.zeros(bundle.dims[1] + 1)
        bad = gf.BundleSection(tuple(vectors))
        with pytest.raises(ValueError, match="xi has wrong dimension at unit 1"):
            gf.coefficient(g3, bundle, bad, xi)
        with pytest.raises(ValueError, match="eta has wrong dimension at unit 1"):
            gf.coefficient(g3, bundle, xi, bad)
        with pytest.raises(ValueError, match="xi has wrong dimension at unit 3"):
            gf.coefficient(g3, bundle, gf.BundleSection(xi.vectors + xi.vectors[:1]), xi)
        maps = bundle.maps
        for short, x in ((maps[:-1], g3.n_arrows - 1), (maps + maps[:1], g3.n_arrows)):
            with pytest.raises(ValueError, match=f"map of arrow {x} "):
                gf.coefficient(g3, gf.GHilbertBundle(bundle.dims, short), xi, xi)
        with pytest.raises(ValueError, match="map of arrow 0 is not a matrix"):
            gf.GHilbertBundle(bundle.dims, (np.zeros(3),) + maps[1:])


class TestVnBasisFromPairs:
    @pytest.mark.parametrize("build", [
        lambda: gf.pair_groupoid(5),
        lambda: gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)], unit_weights=[2.0, 0.5]),
        lambda: gf.transformation_groupoid(gf.cyclic_table(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
        lambda: gf.product_with_pair_groupoid(gf.pair_groupoid(3)),
        lambda: gf.pair_groupoid(3, unit_weights=[1.0, 2.0, 0.5]),
        lambda: gf.pair_groupoid(4, unit_weights=[1.0, 3.0, 0.7, 1.3]),
    ])
    def test_identical_to_the_commutant_of_the_dense_generators(self, build):
        g = build()
        got = gf.vn_basis(g)
        want = gf.commutant(gf.right_delta_ops(g), g.n_arrows)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_peak_memory_is_close_to_the_basis(self):
        g = gf.pair_groupoid(8)
        g.composable_pairs
        tracemalloc.start()
        try:
            basis = gf.vn_basis(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = sum(m.nbytes for m in basis)
        assert len(basis) == 64 and size == 64 * 64 * 64 * 16
        assert peak <= 1.6 * size


def _isotropy(g, c, row) -> np.ndarray:
    """The isotropy arrows of the unit of row ``row`` of the fiber class c."""
    fiber = c.arrows[row]
    return fiber[g.source_of[fiber] == c.units[row]]


def _abelian(g, h) -> bool:
    """Whether the isotropy group with arrows h is abelian."""
    table = g.compose_table[np.ix_(h, h)]
    return np.array_equal(table, table.T)


class TestIsotropyBlocks:
    """``FiniteGroupoid.isotropy_blocks``: the unitaries F_b of the bases on
    the row path.

    The verdicts (unit and witness), the GNS bundles (dimensions and
    reconstruction), the square-root sections and the reduced norms that run
    through them, or decompose the other bases whole, are held to the loop
    oracles on the same zoo by ``TestVerdictsAgainstLoops``,
    ``TestReconstructionsAgainstLoops`` and ``TestKernelsAgainstLoops``."""

    def test_exactly_the_one_unit_abelian_bases_have_a_unitary(self, g):
        assert len(g.isotropy_blocks) == len(g.fiber_classes)
        for c, row in zip(g.fiber_classes, g.isotropy_blocks):
            m = c.arrows.shape[1]
            want = [i for i, b in enumerate(c.bases)
                    if 1 < _isotropy(g, c, b).size == m and _abelian(g, _isotropy(g, c, b))]
            assert ([] if row is None else row[0].tolist()) == want
            if row is not None:
                assert row[1].shape == (len(want), m, m)

    def test_the_unitary_diagonalizes_the_gram_block_kernel_and_right_block(self, g):
        f = random_function(g, _rng(g))
        rights = right_op_blocks_oracle(g, f)
        for c, row in zip(g.fiber_classes, g.isotropy_blocks):
            if row is None:
                continue
            m = c.arrows.shape[1]
            off = ~np.eye(m, dtype=bool)
            for base, unitary in zip(*row):
                assert np.abs(unitary.conj().T @ unitary - np.eye(m)).max() <= 1e-12
                b = c.bases[base]
                gram = f[c.gram[b]]
                for a in (gram, _integral_kernels(g.weights[c.arrows[b]], gram), rights[c.units[b]]):
                    diagonal = unitary.conj().T @ a @ unitary
                    assert np.abs(diagonal[off]).max() <= 1e-12 * np.abs(a).max()

    def test_entries_near_the_largest_float(self):
        # on Z4 the reduced norm of 8e307 f is 1.6e308; at 1.5e308 f it
        # overflows, and so does the row product, whose nan parts must not
        # read as a norm: the norm raises
        g = gf.group_groupoid(gf.cyclic_table(4))
        f = np.array([1.0, 1.0, 1.0, -1.0])
        assert _close(gf.reduced_norm(g, 8e307 * f), reduced_norm_loop_oracle(g, 8e307 * f), 1e-12)
        with pytest.raises(ValueError, match="the norm overflows"):
            gf.reduced_norm(g, 1.5e308 * f)

    def test_entries_near_the_largest_float_on_the_whole_path(self):
        # S3 is decomposed whole, by an SVD that scales its input: the norm of
        # the constant c on its six arrows is 6 c, which overflows at c = max / 4
        g = gf.group_groupoid(_s3()[1])
        f = np.full(6, np.finfo(float).max / 8)
        assert gf.reduced_norm(g, f) == pytest.approx(0.75 * np.finfo(float).max, rel=1e-12)
        with pytest.raises(ValueError, match="the norm overflows"):
            gf.reduced_norm(g, 2 * f)

    def test_no_lapack_call_on_the_bundle(self, monkeypatch):
        # Z30, Z40 and Z50 are abelian: every base takes the row path
        g = LARGE["bundle30-40-50w"]()
        rng = _rng(g)
        phi, f = random_pd(g, rng), random_function(g, rng)
        g.isotropy_blocks  # built before the spies, with the eigh calls that find the blocks
        calls = _spy_on_linalg(monkeypatch)
        assert gf.is_positive_definite(g, phi)
        verdict = gf.is_positive_definite(g, -phi)
        assert not verdict and gf.quadratic_form(g, -phi, verdict.unit, verdict.vector).real < 0
        bundle, xi = gf.gns_bundle(g, phi)
        assert _close(gf.coefficient(g, bundle, xi, xi), phi, 1e-10)
        assert _close(gf.reduced_norm(g, f), reduced_norm_loop_oracle(g, f), 1e-10)
        assert all(shape[-2:] == (1, 1) for _, shape in calls), calls


def _klein_four():
    """Z2 x Z2 from its table: abelian, not cyclic."""
    return gf.group_groupoid([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


def _z6_identity_last():
    """Z6 relabelled by a -> 5 - a, so that its identity, and every unit arrow, is last."""
    a = 5 - np.arange(6)
    return gf.group_groupoid(5 - (a[:, None] + a[None, :]) % 6)


def _z12_on_13_points():
    """Z12 acting on a free orbit of 12 points and a fixed point: one fiber
    class, whose base 12 (isotropy Z12) takes the row path and whose base 0
    (trivial isotropy) is decomposed whole."""
    action = [[(p + k) % 12 for p in range(12)] + [12] for k in range(12)]
    return gf.transformation_groupoid(gf.cyclic_table(12), action)


ROW_PATH = {
    "klein-four": _klein_four,
    "z6-identity-last": _z6_identity_last,
    "z200": lambda: gf.group_groupoid(gf.cyclic_table(200)),
    "z12-on-13": _z12_on_13_points,
}


@pytest.fixture(params=list(ROW_PATH))
def rg(request):
    if request.param not in _built:
        _built[request.param] = ROW_PATH[request.param]()
    return _built[request.param]


def _row_units(g) -> list:
    """The units of the bases on the row path."""
    return [u for c, unitaries in gf.numerics.base_paths(g) if unitaries is not None
            for u in c.units[c.bases].tolist()]


class TestRowPath:
    """Bases of one-unit orbits with abelian isotropy read their spectra from phi on the base fiber (``row_spectra``), with no
    block gathered: against ``np.linalg.eigh`` of the gathered block and the
    loop oracles."""

    def test_paths(self, rg):
        paths = list(gf.numerics.base_paths(rg))
        if rg.n_units == 1:
            assert [(c, unitaries.shape) for c, unitaries in paths] == [(rg.fiber_classes[0], (1,) + rg.compose_table.shape)]
            return
        # the fixed point on the row path, the free orbit whole, in one fiber class
        assert len(rg.fiber_classes) == 1
        assert [(c.units.tolist(), c.bases.tolist(), None if unitaries is None else unitaries.shape)
                for c, unitaries in paths] == [([12], [0], (1, 12, 12)), (list(range(12)), [0], None)]

    def test_eigenpairs_match_eigh_of_the_gathered_block(self, rg):
        phi = random_pd(rg, _rng(rg))
        hermitian = random_function(rg, _rng(rg))
        hermitian = (hermitian + gf.star(rg, hermitian)) / 2
        seen = []
        for c, vals, vecs, shift in gf.positivity._eigenpairs(rg, phi, gf.positivity.PSD_TOL):
            for i, u in enumerate(c.units[c.rows].tolist()):
                a = gram_matrix_oracle(rg, phi, u)
                want = np.linalg.eigh((a + a.conj().T) / 2)[0]
                lam = vals[i] - shift[i]
                assert np.abs(np.sort(lam) - want).max() <= 1e-12 * np.abs(want).max()
                assert np.abs(a @ vecs[i] - vecs[i] * lam).max() <= 1e-12 * np.abs(want).max()
                seen.append(u)
        assert sorted(seen) == [u for u, fiber in enumerate(rg.r_fibers) if rg.source_of[fiber].min() == u]
        # an indefinite Hermitian phi, on the row path itself
        for c, unitaries in gf.numerics.base_paths(rg):
            if unitaries is not None:
                lam = gf.numerics.row_spectra(hermitian[c.arrows], unitaries, c.home)
                for i, u in enumerate(c.units.tolist()):
                    want = np.linalg.eigh(gram_matrix_oracle(rg, hermitian, u))[0]
                    assert np.abs(np.sort(lam[i].real) - want).max() <= 1e-12 * np.abs(want).max()
                    assert np.abs(lam[i].imag).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["pd", "not-pd", "non-hermitian-orbit", "non-hermitian"])
    @pytest.mark.parametrize("which", range(3))
    def test_verdicts_against_the_loop_oracles(self, rg, kind, which):
        phi = _verdict_inputs(rg)[kind]
        verdict, oracle = VERDICTS[which]
        got, want = verdict(rg, phi), oracle(rg, phi)
        assert got.is_pd == want.is_pd == (kind == "pd")
        assert got.unit == want.unit
        if kind == "pd":
            return
        if kind == "not-pd" and which == 0:
            assert got.unit in _row_units(rg)
            a = gram_matrix_oracle(rg, phi, got.unit)
            low = np.linalg.eigh((a + a.conj().T) / 2)[0][0]
            assert abs(np.linalg.norm(got.vector) - 1) <= 1e-12
            assert np.linalg.norm(a @ got.vector - low * got.vector) <= 1e-12 * np.abs(a).max() * a.shape[0]
        else:
            assert np.abs(got.vector - want.vector).max() <= 1e-12
        assert abs(got.value - want.value) <= 1e-12 * max(1.0, abs(want.value))

    def test_reconstructions_against_the_loop_oracles(self, rg):
        rng = _rng(rg)
        phi, f = random_pd(rg, rng), random_function(rg, rng)
        bundle, xi = gf.gns_bundle(rg, phi)
        assert bundle.dims == gns_bundle_oracle(rg, phi)[0].dims == tuple(fiber.size for fiber in rg.r_fibers)
        assert all(_exact_permutation(a) for a in bundle.maps)
        assert _relative(gf.coefficient(rg, bundle, xi, xi), phi) <= 1e-12
        section = gf.pd_to_section(rg, phi)
        assert _close(section, pd_to_section_loop_oracle(rg, phi), 1e-10)
        assert _relative(gf.regular_coefficient(rg, section, section), phi) <= 1e-12
        assert _close(gf.reduced_norm(rg, f), reduced_norm_loop_oracle(rg, f), 1e-12)

    def test_no_block_is_decomposed_on_the_row_path(self, rg, monkeypatch):
        rng = _rng(rg)
        phi, f = random_pd(rg, rng), random_function(rg, rng)
        rg.isotropy_blocks  # built before the spies, with the eigh calls that find the blocks
        calls = _spy_on_linalg(monkeypatch)
        assert gf.is_positive_definite(rg, phi)
        assert not gf.is_positive_definite(rg, -phi)
        gf.gns_bundle(rg, phi)
        gf.pd_to_section(rg, phi)
        gf.reduced_norm(rg, f)
        # Z12 on 13 points: only the free orbit's whole 12x12, in each of the five calls
        want = [] if rg.n_units == 1 else [("eigh", (1, 12, 12))] * 4 + [("svd", (1, 12, 12))]
        assert sorted(calls) == want

    def test_rank_deficient_phi_has_matrix_maps(self):
        # phi = sum of a_j chi_j over three characters of Z12: positive definite of
        # rank 3, its transform zero at the nine others, so that each map is
        # C T_h C^+, the 3x3 diagonal of the characters at h
        g = gf.group_groupoid(gf.cyclic_table(12))
        k = np.arange(12)
        phi = sum(a * np.exp(2j * np.pi * j * k / 12) for j, a in ((0, 2.0), (1, 0.5), (5, 1.5)))
        bundle, xi = gf.gns_bundle(g, phi)
        assert bundle.dims == gns_bundle_oracle(g, phi)[0].dims == (3,)
        assert [s.maps.shape for s in bundle.stacks] == [(12, 3, 3)]
        for h, a in enumerate(bundle.maps):
            assert np.abs(a - np.diag(np.diag(a))).max() <= 1e-12
            assert np.abs(a @ bundle.maps[1] - bundle.maps[(h + 1) % 12]).max() <= 1e-12
        assert np.abs(bundle.maps[0] - np.eye(3)).max() <= 1e-12
        assert _relative(gf.coefficient(g, bundle, xi, xi), phi) <= 1e-12
        assert _close(gf.coefficient(g, bundle, xi, xi), bundle_coefficient_oracle(g, bundle, xi, xi), 1e-12)
        # the nine zero eigenvalues are rounding, whose square roots (about
        # 1e-8) the package and the oracle each keep in their own way
        section = gf.pd_to_section(g, phi)
        assert _close(section, pd_to_section_loop_oracle(g, phi), 1e-6)
        assert _relative(gf.regular_coefficient(g, section, section), phi) <= 1e-12

    def test_a_non_hermitian_phi_on_z5_gets_a_non_real_form(self):
        g = gf.group_groupoid(gf.cyclic_table(5))
        phi = random_pd(g, _rng(g))
        phi[1] += 0.3 * np.abs(phi).max()
        for verdict, oracle in VERDICTS:
            got, want = verdict(g, phi), oracle(g, phi)
            assert not got and got.unit == want.unit == 0
            assert np.abs(got.vector - want.vector).max() <= 1e-12
            assert abs(got.value.imag) > 0.1 * np.abs(phi).max()
            assert abs(got.value - want.value) <= 1e-12 * abs(want.value)
        got = gf.is_positive_definite(g, phi)
        assert got.value == gf.quadratic_form(g, phi, 0, got.vector)

    def test_z400_within_budget(self):
        # the gathered 400x400 blocks took 16.8 ms and an 18 MB peak in
        # is_positive_definite alone; a complex 400x400 block is 2.56 MB
        g = gf.group_groupoid(gf.cyclic_table(400))
        rng = _rng(g)
        phi, f = random_pd(g, rng), random_function(g, rng)
        calls = (lambda: gf.is_positive_definite(g, phi), lambda: gf.gns_bundle(g, phi),
                 lambda: gf.pd_to_section(g, phi), lambda: gf.reduced_norm(g, f))
        for call in calls:
            call()  # builds the cached indexes of g
        cpu = []
        for _ in range(3):
            start = time.process_time()
            for call in calls:
                call()
            cpu.append(time.process_time() - start)
        assert min(cpu) <= 0.02
        for call in calls:
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 400 * 400
