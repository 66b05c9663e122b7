"""The composable-pairs index and everything built on it, against loop oracles."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import gfourier as gf
from conftest import (
    forced_arrow_structure,
    no_bisection_structure,
    random_function,
    s3_on_three_points,
    z4_on_4_points_through_z2,
    z12_on_16_points,
)
from reference import (
    act_bisection_oracle,
    associativity_failures_oracle,
    coefficient_oracle,
    convolve_oracle,
    pair_table_oracle,
    pd_double_sum_oracle,
    product_table_oracle,
    transformation_table_oracle,
    validate_oracle,
)

FIXTURES = ["g2", "g3", "g4", "z2", "z3", "bundle23", "weighted_bundle", "transf", "g3xI2"]


def _s3_table_and_action():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(3))] for b in perms] for a in perms]
    return table, [list(p) for p in perms]


@pytest.fixture
def groupoid(request):
    if request.param == "g3xI2":
        return gf.product_with_pair_groupoid(gf.pair_groupoid(3))
    return request.getfixturevalue(request.param)


def _close(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("groupoid", FIXTURES, indirect=True)
class TestKernelsMatchLoopOracles:
    def test_index_lists_each_factorization_once(self, groupoid):
        g = groupoid
        x, t, y, starts = g.composable_pairs
        assert x.size == sum(fiber.size ** 2 for fiber in g.r_fibers)
        assert np.array_equal(g.compose_table[t, y], x)
        pairs = set(zip(t.tolist(), y.tolist()))
        defined = set(zip(*map(list, np.nonzero(g.compose_table != gf.groupoid.UNDEFINED))))
        assert pairs == defined and len(pairs) == x.size
        assert np.array_equal(x[starts], np.arange(g.n_arrows))

    def test_convolution_and_operators(self, groupoid, rng):
        g = groupoid
        f, h, v = (random_function(g, rng) for _ in range(3))
        assert _close(gf.convolve(g, f, h), convolve_oracle(g, f, h))
        assert _close(gf.right_op(g, f) @ v, convolve_oracle(g, v, f))
        assert _close(gf.left_op(g, f) @ v, convolve_oracle(g, f, v))

    def test_regular_coefficient(self, groupoid, rng):
        g = groupoid
        f, h = random_function(g, rng), random_function(g, rng)
        assert _close(gf.regular_coefficient(g, f, h), coefficient_oracle(g, f, h))

    def test_integral_form(self, groupoid, rng):
        g = groupoid
        phi = random_function(g, rng)
        f = random_function(g, rng)
        for u, fiber in enumerate(g.r_fibers):
            assert _close(gf.integral_form(g, phi, u, f[fiber]), pd_double_sum_oracle(g, phi, u, f))

    def test_act_bisection(self, groupoid, rng):
        g = groupoid
        f = random_function(g, rng)
        for a in gf.enumerate_bisections(g)[:6]:
            for side in ("left", "right"):
                expect = act_bisection_oracle(g, a, f, side)
                assert np.array_equal(gf.act_bisection(g, a, f, side), expect)

    def test_validate(self, groupoid):
        assert gf.validate(groupoid) == validate_oracle(groupoid)


def _corruptions():
    """Single-entry corruptions of the pair groupoid on 3 points."""
    g = gf.pair_groupoid(3)

    def changed(field, index, value):
        array = getattr(g, field).copy()
        array[index] = value
        return dataclasses.replace(g, **{field: array})

    return {
        "compose removed": changed("compose_table", (1, 3), gf.groupoid.UNDEFINED),
        "compose removed at (6, 2)": changed("compose_table", (6, 2), gf.groupoid.UNDEFINED),
        "compose changed": changed("compose_table", (1, 3), 8),
        "compose added": changed("compose_table", (1, 1), 2),
        "inverse changed": changed("inverse_of", 1, 2),
        "unit inverse changed": changed("inverse_of", 4, 3),
        "unit arrow moved": changed("unit_arrows", 1, 3),
        "unit arrow repeated": changed("unit_arrows", 2, 0),
        "weight changed": changed("weights", 5, 2.0),
        "weight negative": changed("weights", 5, -1.0),
        "weight not a number": changed("weights", 5, np.nan),
        "weight infinite": changed("weights", 5, np.inf),
        "range changed": changed("range_of", 7, 0),
        "range negative": changed("range_of", 7, -1),
        "source negative": changed("source_of", 7, -1),
    }


class TestValidateMatchesLoopOracle:
    @pytest.mark.parametrize("name", list(_corruptions()))
    @pytest.mark.parametrize("max_report", [1, 3, 50])
    def test_corrupted_pair_groupoid(self, name, max_report):
        g = _corruptions()[name]
        expect = validate_oracle(g, max_report)
        assert expect.violations
        assert gf.validate(g, max_report).violations == expect.violations

    @pytest.mark.parametrize("build", [no_bisection_structure, forced_arrow_structure])
    def test_invalid_structures(self, build):
        g = build()
        assert gf.validate(g).violations == validate_oracle(g).violations

    def test_undefined_inner_product_is_not_read_as_the_last_column(self):
        # with the product 6 2 = (2, 0)(0, 2) removed, x(6 2) is undefined; a
        # gather at column -1 reads x 8 instead, which equals (x 6) 2 for x = 2, 5
        # and differs from the undefined (8 6) 2
        g = _corruptions()["compose removed at (6, 2)"]
        failures = [v for v in gf.validate(g).violations if v.startswith("associativity")]
        assert failures == [
            "associativity fails on (2, 6, 2)",
            "associativity fails on (5, 6, 2)",
            "associativity fails on (6, 1, 5)",
            "associativity fails on (7, 3, 2)",
        ]

    @pytest.mark.parametrize("groupoid", FIXTURES, indirect=True)
    @pytest.mark.parametrize("max_report", [1, 3, 50])
    def test_random_single_entry_corruptions(self, groupoid, max_report, rng):
        g = groupoid
        associativity = 0
        for bad in _random_single_entry_corruptions(g, rng):
            expect = validate_oracle(bad, max_report).violations
            assert expect
            assert gf.validate(bad, max_report).violations == expect
            associativity += any(v.startswith("associativity") for v in expect)
        if max_report == 50 and g.n_arrows > 2:
            assert associativity


def _random_single_entry_corruptions(g, rng):
    """Three each of a removed product, a changed product, a changed range and
    a changed source (these two only with more than one unit)."""
    pairs = np.argwhere(g.compose_table != gf.groupoid.UNDEFINED)
    out = []
    for kind in ("removed", "changed", "range_of", "source_of") * 3:
        if kind in ("range_of", "source_of"):
            if g.n_units == 1:
                continue
            x = rng.integers(g.n_arrows)
            # another unit, so that the fiber sizes become unequal
            moved = getattr(g, kind).copy()
            moved[x] = (moved[x] + rng.integers(1, g.n_units)) % g.n_units
            out.append(dataclasses.replace(g, **{kind: moved}))
        else:
            x, y = pairs[rng.integers(len(pairs))]
            table = g.compose_table.copy()
            if kind == "removed":
                table[x, y] = gf.groupoid.UNDEFINED
            else:
                table[x, y] = (table[x, y] + rng.integers(1, g.n_arrows)) % g.n_arrows
            out.append(dataclasses.replace(g, compose_table=table))
    return out


def _associativity_only_corruptions():
    """Every single-entry change of a product, on pair(3), Z4, Z2+Z3 and S3 on
    3 points, after which only associativity fails: the new product is
    another arrow with the same endpoints, off the identity and inverse laws."""
    out = []
    for g in (gf.pair_groupoid(3), gf.group_groupoid(gf.cyclic_table(4)),
              gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)]), s3_on_three_points()):
        for x, y in np.argwhere(g.compose_table != gf.groupoid.UNDEFINED):
            ends = (g.range_of == g.range_of[x]) & (g.source_of == g.source_of[y])
            for z in np.flatnonzero(ends & (np.arange(g.n_arrows) != g.compose_table[x, y])):
                table = g.compose_table.copy()
                table[x, y] = z
                bad = dataclasses.replace(g, compose_table=table)
                violations = validate_oracle(bad, 10**6).violations
                if violations and all(v.startswith("associativity") for v in violations):
                    out.append(bad)
    return out


@pytest.fixture(scope="module")
def associativity_only():
    return _associativity_only_corruptions()


def _kernels_groupoids():
    return [gf.pair_groupoid(12), gf.pair_groupoid(16),
            gf.group_bundle([gf.cyclic_table(k) for k in (30, 40, 50)], unit_weights=[0.5, 1.5, 2.0]),
            z12_on_16_points(), gf.product_with_pair_groupoid(gf.pair_groupoid(7))]


class TestAssociativityByGenerators:
    """Light's test on a generating set decides the tables that pass every
    other check; the scan of every composable triple lists the failures."""

    @pytest.mark.parametrize("max_report", [1, 3, 50])
    def test_every_associativity_only_corruption_matches_the_oracle(self, associativity_only, max_report):
        assert len(associativity_only) == 82
        for bad in associativity_only:
            assert gf.validate(bad, max_report).violations == validate_oracle(bad, max_report).violations

    def test_valid_groupoids_scan_no_triples(self, monkeypatch, request):
        kernel = gf.groupoid._associativity_failures

        def scan(g, limit, middles=None):
            # Light's test compares the triples of its generators through the same kernel
            if middles is None:
                raise AssertionError("every composable triple scanned")
            return kernel(g, limit, middles)

        monkeypatch.setattr(gf.groupoid, "_associativity_failures", scan)
        # g3xI2 is no conftest fixture: the groupoid fixture builds it, as the first entry below does
        fixtures = [request.getfixturevalue(name) for name in FIXTURES if name != "g3xI2"]
        # built here, so that the group-table checks of the constructors run under the patch
        built = [gf.product_with_pair_groupoid(gf.pair_groupoid(3)), gf.group_groupoid(gf.cyclic_table(200)),
                 s3_on_three_points(identity_last=True), z4_on_4_points_through_z2(), *_kernels_groupoids()]
        for g in fixtures + built:
            assert gf.validate(g).ok

    @pytest.mark.parametrize("limit", [1, 3, 10**6])
    def test_kernel_on_middles_matches_the_oracle_on_associativity_only_corruptions(
            self, associativity_only, rng, limit):
        for bad in associativity_only:
            _check_kernel_on_random_middles(bad, limit, rng)

    @pytest.mark.parametrize("groupoid", FIXTURES, indirect=True)
    @pytest.mark.parametrize("limit", [1, 3, 10**6])
    def test_kernel_on_middles_matches_the_oracle_on_random_corruptions(self, groupoid, rng, limit):
        # each groupoid's corruptions include removed products, so triples with
        # xy or yz undefined
        for bad in _random_single_entry_corruptions(groupoid, rng):
            _check_kernel_on_random_middles(bad, limit, rng)


def _check_kernel_on_random_middles(g, limit, rng):
    """The kernel on a random subset of the middles, in random order, lists
    the oracle's failing triples whose middle is in the subset."""
    middles = rng.permutation(g.n_arrows)[:rng.integers(1, g.n_arrows + 1)]
    expect = [t for t in associativity_failures_oracle(g) if t[1] in set(middles.tolist())]
    assert gf.groupoid._associativity_failures(g, limit, middles) == expect[:limit]


class TestConstructorTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pair_groupoid(self, n):
        assert np.array_equal(gf.pair_groupoid(n).compose_table, pair_table_oracle(n))

    def test_product_with_pair_groupoid(self, g3):
        g = gf.product_with_pair_groupoid(g3)
        assert np.array_equal(g.compose_table, product_table_oracle(g3))
        assert [int(e) for e in g.unit_arrows] == [
            gf.product_arrow_id(int(e), i, i) for e in g3.unit_arrows for i in (0, 1)
        ]

    def test_s3_on_three_points(self):
        table, action = _s3_table_and_action()
        g = gf.transformation_groupoid(table, action)
        assert np.array_equal(g.compose_table, transformation_table_oracle(table, action))
        assert gf.validate(g).ok

    def test_incompatible_action_names_first_pair(self):
        table, action = _s3_table_and_action()
        action[1] = action[0]
        with pytest.raises(ValueError, match=r"at \(1, 2\)"):
            gf.transformation_groupoid(table, action)

    def test_non_associative_table_names_first_pair(self):
        # a Latin square with identity 0 and inverses that is not associative
        table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        with pytest.raises(ValueError, match=r"not associative at \(1, 1\)"):
            gf.group_groupoid(table)

    def test_non_associative_table_names_first_pair_past_the_first_pass(self):
        # Z200 with 1 and 2 swapped in row 150 keeps its identity and inverses
        k = 200
        table = gf.cyclic_table(k)
        ones, twos = table[150] == 1, table[150] == 2
        table[150, ones], table[150, twos] = 2, 1
        for a in range(k):  # the first (a, b) by a loop over a, as an oracle
            bad = np.any(table[table[a]] != table[a][table], axis=1)
            if bad.any():
                break
        assert a * k + bad.argmax() > gf.groupoid._STACK // k  # not in the first pass
        with pytest.raises(ValueError, match=rf"not associative at \({a}, {bad.argmax()}\)"):
            gf.group_groupoid(table)

    def test_group_check_never_holds_all_triples(self):
        table = gf.cyclic_table(200)
        tracemalloc.start()
        try:
            gf.group_groupoid(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # all 200^3 triples at once would take 64 MB per int64 array
        assert peak <= 4e6


def _pair2_with(field, index, value):
    g = gf.pair_groupoid(2)
    array = getattr(g, field).copy()
    array[index] = value
    return dataclasses.replace(g, **{field: array})


class TestValidateChecksItsInputsFirst:
    """An id or a shape that later checks would index by is reported, alone,
    instead of raising or being read from the end of an array."""

    @pytest.mark.parametrize("field, index, value, violation", [
        ("compose_table", (0, 0), 99, "product of (0, 0) is 99, which is not an arrow"),
        ("compose_table", (0, 0), 4, "product of (0, 0) is 4, which is not an arrow"),
        ("compose_table", (0, 0), -5, "product of (0, 0) is -5, which is not an arrow"),
        ("inverse_of", 1, 9, "arrow 1 has inverse 9, which is not an arrow"),
        ("range_of", 1, 5, "arrow 1 has range 5, which is not a unit"),
        ("range_of", 1, -1, "arrow 1 has range -1, which is not a unit"),
        ("unit_arrows", 1, 7, "unit 1 has unit arrow 7, which is not an arrow"),
    ])
    def test_an_id_out_of_range_is_named(self, field, index, value, violation):
        g = _pair2_with(field, index, value)
        assert gf.validate(g).violations == (violation,)
        assert validate_oracle(g).violations == (violation,)

    @pytest.mark.parametrize("field, shape, violation", [
        ("compose_table", (4, 3), "compose_table has shape (4, 3), expected (4, 4)"),
        ("source_of", (3,), "source_of has shape (3,), expected (4,)"),
        ("weights", (3,), "weights has shape (3,), expected (4,)"),
    ])
    def test_a_wrong_shape_is_named(self, field, shape, violation):
        g = gf.pair_groupoid(2)
        g = dataclasses.replace(g, **{field: getattr(g, field)[tuple(slice(k) for k in shape)]})
        assert gf.validate(g).violations == (violation,)
        assert validate_oracle(g).violations == (violation,)

    @pytest.mark.parametrize("max_report", [0, -1])
    def test_max_report_below_one_is_refused(self, max_report):
        # with the product (0, 0) removed the report is never "ok"
        g = _pair2_with("compose_table", (0, 0), gf.groupoid.UNDEFINED)
        assert not gf.validate(g, 1).ok
        with pytest.raises(ValueError, match="max_report must be at least 1"):
            gf.validate(g, max_report)
