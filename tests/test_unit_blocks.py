"""The stacked unit-block layer against the per-unit loops it replaced.

Every function that decides or builds something one unit fiber at a time is
compared with its loop version in ``reference.py`` on the conftest fixtures and
on the larger groupoids of the kernels benchmark.
"""

import time
import tracemalloc

import numpy as np
import pytest

import gfourier as gf
from conftest import (
    _s3,
    forced_arrow_structure,
    random_function,
    random_pd,
    range_weighted_pair3,
    s3_on_three_points,
    z12_on_16_points,
)
from gfourier.checks import run_suites
from gfourier.positivity import _integral_kernels
from gfourier.regular import _right_op_blocks
from reference import (
    adjoint_op_oracle,
    block_norm_oracle,
    bundle_coefficient_oracle,
    d_inner_loop_oracle,
    gns_bundle_oracle,
    gram_matrix_oracle,
    i_norm_range_oracle,
    i_norm_source_oracle,
    is_positive_definite_oracle,
    pd_to_section_loop_oracle,
    pd_verdict_integral_oracle,
    pd_verdict_pointset_oracle,
    polar_seed_oracle,
    reduced_norm_loop_oracle,
    right_op_blocks_oracle,
    section_norm_oracle,
    stieltjes_problem_oracle,
)


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


class TestOrbitIndex:
    def test_every_unit_is_a_permuted_copy_of_its_base(self, g):
        assert len(g.orbit_index) == len(g.fiber_classes)
        bases = 0
        for c, o in zip(g.fiber_classes, g.orbit_index):
            k, m = c.arrows.shape
            assert np.array_equal(o.orbit[o.bases], np.arange(o.bases.size))
            assert np.all(np.diff(o.bases) > 0) and o.alone == (o.bases.size == k)
            bases += o.bases.size
            for i in range(k):
                b, p = o.bases[o.orbit[i]], o.perm[i]
                assert c.units[b] == g.source_of[g.r_fibers[c.units[i]]].min()
                a = c.arrows[i, o.transport[i]]
                assert g.source_of[a] == c.units[b] and g.range_of[a] == c.units[i]
                assert np.array_equal(np.sort(p), np.arange(m))
                assert np.array_equal(c.gram[i], c.gram[b][np.ix_(p, p)])
                assert np.array_equal(g.weights[c.arrows[i]], g.weights[c.arrows[b]][p])
                assert c.arrows[b, o.home[i]] == g.inverse_of[a]
                assert o.home[i] == p[list(c.arrows[i]).index(g.unit_arrows[c.units[i]])]
                if i == b:
                    # a base is carried by its unit arrow
                    assert a == g.unit_arrows[c.units[i]] == c.arrows[i, o.home[i]]
                    assert np.array_equal(p, np.arange(m))
        assert bases == _orbit_count(g)

    def test_weights_that_are_not_left_invariant_keep_every_unit(self):
        g = range_weighted_pair3()
        (c,), (o,) = g.fiber_classes, g.orbit_index
        assert np.array_equal(o.bases, np.arange(3)) and o.alone
        assert np.array_equal(o.perm, np.tile(np.arange(3), (3, 1)))
        rng = _rng(g)
        # positive definite on pair(3) whatever the weights
        phi, f = random_pd(gf.pair_groupoid(3), rng), random_function(g, rng)
        assert _close(gf.reduced_norm(g, f), reduced_norm_loop_oracle(g, f), 1e-12)
        for verdict, oracle in VERDICTS:
            for x in (phi, phi - 10.0 * (1 + np.abs(phi).max()) * gf.delta(g, g.unit_arrows[2])):
                got, want = verdict(g, x), oracle(g, x)
                assert got.is_pd == want.is_pd and got.unit == want.unit
        bundle, xi = gf.gns_bundle(g, phi)
        assert bundle.dims == gns_bundle_oracle(g, phi)[0].dims
        assert _close(gf.coefficient(g, bundle, xi, xi), phi, 1e-10)
        # the coefficient-norm problem keeps a block per unit, to the same value
        assert sum(len(x) for x in gf.norms._bases(g).grams) == 3
        assert gf.fourier_stieltjes_norm(g, phi).value == pytest.approx(
            gf.fourier_stieltjes_norm(gf.pair_groupoid(3), phi).value, rel=1e-9)


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
        assert {name for name, _ in calls} == {"eigh", "eigvalsh", "svd"}
        if not any(g.isotropy_blocks):
            assert all(len(shape) == 3 and shape[0] == _orbit_count(g) for _, shape in calls), calls
            return
        # every call's matrices are at most the largest isotropy block of the
        # class: the free orbit's whole 12x12 block, one matrix, or the three
        # 4x4 blocks (one per character of Z3, |X| = 4) of the other orbit
        assert all(shape in ((1, 12, 12), (1, 3, 4, 4)) for _, shape in calls), calls

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
    """``coefficient`` applies each map object once per source, whatever is shared."""

    def _sections(self, g, dims):
        rng = _rng(g)
        return [gf.BundleSection(tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d)
                                       for d in dims)) for _ in range(2)]

    @pytest.mark.parametrize("build", [lambda: gf.pair_groupoid(16), z12_on_16_points,
                                       NONSINGULAR["bundle30-40-50w"]])
    def test_shared_maps_and_their_copies(self, build):
        g = build()
        bundle, _ = gf.gns_bundle(g, random_pd(g, _rng(g)))
        xi, eta = self._sections(g, bundle.dims)
        # equal values held as distinct objects share no work but give the same values
        copies = gf.GHilbertBundle(bundle.dims, tuple(a.copy() for a in bundle.maps))
        assert len({id(a) for a in copies.maps}) == g.n_arrows
        for b in (bundle, copies):
            for left, right in ((xi, xi), (xi, eta), (eta, xi)):
                assert _close(gf.coefficient(g, b, left, right),
                              bundle_coefficient_oracle(g, b, left, right), 1e-12)

    def test_all_distinct_maps_of_mixed_shapes(self):
        # fibers of dimension 1 on the free orbit and 3 on the orbit with isotropy
        g = z12_on_16_points()
        dims = (1,) * 12 + (3,) * 4
        rng = _rng(g)
        maps = tuple(rng.standard_normal((dims[r], dims[s])) + 1j * rng.standard_normal((dims[r], dims[s]))
                     for r, s in zip(g.range_of, g.source_of))
        bundle = gf.GHilbertBundle(dims, maps)
        xi, eta = self._sections(g, dims)
        assert _close(gf.coefficient(g, bundle, xi, eta),
                      bundle_coefficient_oracle(g, bundle, xi, eta), 1e-12)

    def test_one_map_object_of_each_shape(self):
        g = gf.pair_groupoid(5)
        dims = (2, 2, 3, 2, 3)
        shared = {(r, c): np.arange(r * c).reshape(r, c) * (1 - 0.5j) for r in (2, 3) for c in (2, 3)}
        bundle = gf.GHilbertBundle(dims, tuple(shared[dims[r], dims[s]]
                                               for r, s in zip(g.range_of, g.source_of)))
        xi, eta = self._sections(g, dims)
        assert _close(gf.coefficient(g, bundle, xi, eta),
                      bundle_coefficient_oracle(g, bundle, xi, eta), 1e-12)


class TestKernelsAgainstLoops:
    def test_blocks_and_fiber_sums(self, g):
        rng = _rng(g)
        f, h = random_function(g, rng), random_function(g, rng)
        for u in range(g.n_units):
            assert np.array_equal(gf.gram_matrix(g, f, u), gram_matrix_oracle(g, f, u))
        loops = right_op_blocks_oracle(g, f)
        for c, stack in zip(g.fiber_classes, _right_op_blocks(g, f)):
            for i, u in enumerate(c.units):
                assert np.array_equal(stack[i], loops[u])
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
        if kind == "not-pd" and which == 0 and any(g.isotropy_blocks):
            # the lowest eigenvector of an isotropy block mapped back: in the
            # oracle's lowest eigenspace, in another basis or phase
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
        assert _close(back, phi, 1e-10)
        assert _close(back, bundle_coefficient_oracle(g, bundle, xi, xi), 1e-12)
        assert _close(gf.coefficient(g, want_bundle, want_xi, want_xi), phi, 1e-10)
        if np.all(g.weights == 1.0):
            section = gf.pd_to_section(g, phi)
            assert _close(section, pd_to_section_loop_oracle(g, phi), 1e-10)
            assert _close(gf.regular_coefficient(g, section, section), phi, 1e-10)

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
        assert _close(gf.coefficient(g, bundle, xi, xi), phi, 1e-10)
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

    def test_coefficient_rejects_a_map_of_the_wrong_shape(self, g3):
        bundle, xi = gf.gns_bundle(g3, random_pd(g3, _rng(g3)))
        maps = list(bundle.maps)
        maps[4] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="map of arrow 4"):
            gf.coefficient(g3, gf.GHilbertBundle(bundle.dims, tuple(maps)), xi, xi)


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


def _irrep_dims(g, h) -> list[int]:
    """The dimensions of the irreducible representations of the isotropy group
    with arrows h: all 1 when it is abelian; the zoo's one nonabelian
    isotropy group is S3."""
    table = g.compose_table[np.ix_(h, h)]
    if np.array_equal(table, table.T):
        return [1] * h.size
    assert h.size == 6
    return [1, 1, 2]


def _block_mask(runs, m) -> np.ndarray:
    mask = np.zeros((m, m), dtype=bool)
    lo = 0
    for size, n in runs:
        for _ in range(n):
            mask[lo : lo + size, lo : lo + size] = True
            lo += size
    assert lo == m
    return mask


class TestIsotropyBlocks:
    """``FiniteGroupoid.isotropy_blocks`` and the decompositions through it.

    The verdicts (unit and witness), the GNS bundles (dimensions and
    reconstruction), the square-root sections and the reduced norms that run
    through these blocks are held to the loop oracles on the same zoo by
    ``TestVerdictsAgainstLoops``, ``TestReconstructionsAgainstLoops`` and
    ``TestKernelsAgainstLoops``."""

    def test_exactly_the_bases_with_isotropy_have_a_unitary(self, g):
        invariant = np.array_equal(g.weights, g.unit_weights[g.source_of])
        assert len(g.isotropy_blocks) == len(g.fiber_classes)
        for c, o, blocks in zip(g.fiber_classes, g.orbit_index, g.isotropy_blocks):
            split = np.concatenate([np.zeros(0, dtype=int)] + [layout.bases for layout in blocks])
            want = [i for i, row in enumerate(o.bases) if invariant and _isotropy(g, c, row).size > 1]
            assert sorted(split.tolist()) == want
            assert len({layout.runs for layout in blocks}) == len(blocks)

    def test_unitary_and_block_diagonal(self, g):
        f = random_function(g, _rng(g))
        rights = _right_op_blocks(g, f, [o.bases for o in g.orbit_index])
        for c, o, blocks, right in zip(g.fiber_classes, g.orbit_index, g.isotropy_blocks, rights):
            m = c.arrows.shape[1]
            for layout in blocks:
                off = ~_block_mask(layout.runs, m)
                for unitary, base in zip(layout.unitary, layout.bases):
                    assert np.abs(unitary.conj().T @ unitary - np.eye(m)).max() <= 1e-12
                    row = o.bases[base]
                    gram = f[c.gram[row]]
                    for a in (gram, _integral_kernels(g.weights[c.arrows[row]], gram), right[base]):
                        blocked = unitary.conj().T @ a @ unitary
                        assert np.abs(blocked[off]).max() <= 1e-12 * np.abs(a).max()

    def test_block_sizes_are_irrep_dimensions_times_orbit_size(self, g):
        for c, o, blocks in zip(g.fiber_classes, g.orbit_index, g.isotropy_blocks):
            m = c.arrows.shape[1]
            for layout in blocks:
                sizes = [size for size, n in layout.runs for _ in range(n)]
                for base in layout.bases:
                    h = _isotropy(g, c, o.bases[base])
                    dims = _irrep_dims(g, h)
                    # d_pi blocks of size d_pi |X| for each irreducible pi
                    assert sizes == sorted(d * (m // h.size) for d in dims for _ in range(d))
                    assert len(sizes) == sum(dims)

    @pytest.mark.parametrize("name, runs", [
        ("s3_moved", ((1, 2), (2, 2))),
        ("s3xI2", ((2, 2), (4, 2))),
        ("z12-on-16", ((4, 3),)),
        ("s3-on-3w", ((3, 2),)),
        ("bundle30-40-50w", ((1, 30),)),
    ])
    def test_layouts_of_the_zoo(self, name, runs, request):
        g = request.getfixturevalue(name) if name in FIXTURES else LARGE[name]()
        assert g.isotropy_blocks[0][0].runs == runs

    def test_entries_near_the_largest_float(self):
        # on Z4 the reduced norm of 8e307 f is 1.6e308; at 1.5e308 f it
        # overflows, and so do the block products, whose nan parts must not
        # read as a norm: the stack is decomposed whole and the norm raises
        g = gf.group_groupoid(gf.cyclic_table(4))
        f = np.array([1.0, 1.0, 1.0, -1.0])
        assert _close(gf.reduced_norm(g, 8e307 * f), reduced_norm_loop_oracle(g, 8e307 * f), 1e-12)
        with pytest.raises(ValueError, match="the norm overflows"):
            gf.reduced_norm(g, 1.5e308 * f)

    def test_no_lapack_call_on_the_bundle(self, monkeypatch):
        # every isotropy block of Z30, Z40 and Z50 is 1x1
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
