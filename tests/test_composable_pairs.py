"""The composable-pairs index and everything built on it, against loop oracles."""

import dataclasses
import itertools

import numpy as np
import pytest

import gfourier as gf
from conftest import forced_arrow_structure, no_bisection_structure, random_function
from reference import (
    act_bisection_oracle,
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
