"""The array forms of the duality axioms and of the bisection layer against
their loop versions in ``oracles.py``: identical defects, witnesses, unit
bijections, supports, reconstructions and bisections."""

import re

import numpy as np
import pytest

import gfourier as gf
from gfourier import duality as dual
from gfourier.checks import suite_axioms
from conftest import forced_arrow_structure, no_bisection_structure, random_function, random_pd
from oracles import (
    bisection_group_oracle,
    bisection_inverse_oracle,
    bisection_product_oracle,
    is_bisection_oracle,
    match_unit_bijection_oracle,
    module_law_defect_oracle,
    multiplicativity_oracle,
    pd_to_section_oracle,
    reconstruct_bisection_oracle,
    reduced_norm_oracle,
    support_analysis_oracle,
)

@pytest.fixture(params=["g2", "g3", "bundle23", "transf", "g4"])
def g(request):
    return request.getfixturevalue(request.param)


def bisections(g):
    # pair(4) has 24; the first 20 keep the loop oracles quick
    return gf.enumerate_bisections(g)[:20]


def candidate_matrices(g, seed=0):
    """Evaluation maps, random, scaled, two-point, zero and single off-support matrices."""
    rng = np.random.default_rng(seed)
    shape = (g.n_units, g.n_arrows)
    out = []
    for a in bisections(g):
        alpha = gf.range_evaluation_map(g, a).matrix
        beta = gf.source_evaluation_map(g, a).matrix
        out += [alpha, beta, 0.5 * alpha, (1 + 2j) * beta]
    for _ in range(4):
        out.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    two = gf.range_evaluation_map(g, gf.identity_bisection(g)).matrix.copy()
    two[0, rng.integers(g.n_arrows)] += 1.0
    out.append(two)
    out.append(np.zeros(shape, dtype=complex))
    for side_of in (g.range_of, g.source_of):
        for x in rng.choice(g.n_arrows, size=min(3, g.n_arrows), replace=False):
            off = [u for u in range(g.n_units) if u != side_of[x]]
            if off:
                single = np.zeros(shape, dtype=complex)
                single[off[0], x] = 0.25 - 1j
                out.append(single)
    return out


def candidate_pairs(g):
    """(alpha, beta) pairs: evaluation pairs, mismatched pairs and corrupted pairs."""
    mats = candidate_matrices(g)
    pairs = []
    for a in bisections(g):
        pairs.append((gf.range_evaluation_map(g, a).matrix, gf.source_evaluation_map(g, a).matrix))
    for i, m in enumerate(mats):
        pairs.append((m, mats[(7 * i + 3) % len(mats)]))
        pairs.append((m, m))
    return [(gf.ModuleMap(matrix=a, side="right"), gf.ModuleMap(matrix=b, side="left"))
            for a, b in pairs]


def outcome(fn, *args):
    """Result, or the exception's type and message."""
    try:
        return fn(*args)
    except AssertionError:
        return AssertionError
    except IndexError:
        return IndexError
    except (ValueError, dual.ReconstructionError) as err:
        return type(err), str(err), getattr(err, "unit", None)


class TestAxiomsAgainstLoops:
    def test_module_law_defect(self, g):
        for m in candidate_matrices(g):
            for side in ("right", "left"):
                mm = gf.ModuleMap(matrix=m, side=side)
                assert dual._module_law_defect(g, mm) == module_law_defect_oracle(g, mm)

    def test_multiplicativity(self, g):
        seen_failure = False
        for m in candidate_matrices(g):
            mm = gf.ModuleMap(matrix=m, side="right")
            got = dual._multiplicativity(g, mm, 1e-9)
            assert got == multiplicativity_oracle(g, mm, 1e-9)
            seen_failure |= not got[0]
        assert seen_failure

    def test_unit_bijection(self, g):
        found = 0
        for alpha, beta in candidate_pairs(g):
            got = dual._match_unit_bijection(g, alpha, beta, 1e-9)
            assert got == match_unit_bijection_oracle(g, alpha, beta, 1e-9)
            found += got is not None
        assert found >= len(bisections(g))

    def test_support_analysis(self, g):
        for m in candidate_matrices(g):
            alpha = gf.ModuleMap(matrix=m, side="right")
            assert gf.support_analysis(g, alpha) == support_analysis_oracle(g, alpha)
            assert gf.support_analysis(g, alpha, 0.3) == support_analysis_oracle(g, alpha, 0.3)

    def test_reconstruction(self, g):
        for alpha, beta in candidate_pairs(g):
            assert outcome(gf.reconstruct_bisection, g, alpha, beta) == \
                outcome(reconstruct_bisection_oracle, g, alpha, beta)

    def test_reconstruction_of_corrupted_maps(self, g):
        # an entry added at an arrow's own unit; one of 1e-10 passes the pair
        # axioms (tol 1e-9) but not the support checks (tol 1e-12)
        errors = set()
        for a in bisections(g):
            for x in range(g.n_arrows):
                for side, eps in (("left", 1.0), ("left", 1e-10), ("right", 1e-10)):
                    maps = {"right": gf.range_evaluation_map(g, a).matrix.copy(),
                            "left": gf.source_evaluation_map(g, a).matrix.copy()}
                    own = g.range_of if side == "right" else g.source_of
                    maps[side][own[x], x] += eps
                    alpha = gf.ModuleMap(matrix=maps["right"], side="right")
                    beta = gf.ModuleMap(matrix=maps["left"], side="left")
                    got = outcome(gf.reconstruct_bisection, g, alpha, beta)
                    assert got == outcome(reconstruct_bisection_oracle, g, alpha, beta)
                    if isinstance(got, tuple):
                        errors.add(re.sub(r"\d+", "#", got[1]))
        if g.n_units > 1:
            assert errors == {"no unit bijection links beta to alpha",
                              "support over unit # is not a singleton",
                              "left/right supports disagree near unit #"}

    def test_support_disagreement_names_the_lowest_unit(self, g):
        # tiny entries at two arrows of different ranges that the bisection skips
        for a in bisections(g):
            skipped = [x for x in range(g.n_arrows) if x not in a.picks]
            first_of_range = {int(g.range_of[x]): x for x in reversed(skipped)}
            if len(first_of_range) < 2:
                continue
            beta = gf.source_evaluation_map(g, a).matrix.copy()
            for x in list(first_of_range.values())[:2]:
                beta[g.source_of[x], x] = 1e-10
            alpha = gf.range_evaluation_map(g, a)
            beta = gf.ModuleMap(matrix=beta, side="left")
            got = outcome(gf.reconstruct_bisection, g, alpha, beta)
            assert got == outcome(reconstruct_bisection_oracle, g, alpha, beta)
            assert got[2] == min(list(first_of_range)[:2])


def random_picks(g, rng, count=60):
    """Pick tuples of every length near n_units, with out-of-range and negative arrows."""
    n = g.n_units
    out = [tuple(rng.integers(-2, g.n_arrows + 2, size=k).tolist())
           for k in rng.choice([n - 1, n, n, n, n + 1], size=count)]
    out += [tuple(int(rng.choice(fiber)) for fiber in g.r_fibers) for _ in range(count)]
    out += [(2**70,) * n, ()]
    return out


class TestBisectionLayerAgainstLoops:
    def test_is_bisection(self, g):
        rng = np.random.default_rng(1)
        picks = random_picks(g, rng) + [a.picks for a in gf.enumerate_bisections(g)]
        answers = [gf.is_bisection(g, p) for p in picks]
        assert answers == [is_bisection_oracle(g, p) for p in picks]
        assert any(answers) and not all(answers)

    def test_product_and_inverse_of_bisections(self, g):
        gamma = bisections(g)
        for a in gamma:
            assert gf.bisection_inverse(g, a) == bisection_inverse_oracle(g, a)
            for b in gamma:
                assert gf.bisection_product(g, a, b) == bisection_product_oracle(g, a, b)

    def test_product_and_inverse_of_other_picks(self, g):
        # arrow ids index as in numpy, negative ones from the end; with an id
        # past the last arrow both raise, but the loop may stop first at a pair
        # that does not compose, or at the bisection assert
        rng = np.random.default_rng(2)
        picks = [gf.Bisection(p) for p in random_picks(g, rng) if len(p) == g.n_units]
        for a, b in zip(picks, picks[1:]):
            if max(a.picks + b.picks) < g.n_arrows:
                assert outcome(gf.bisection_product, g, a, b) == \
                    outcome(bisection_product_oracle, g, a, b)
                assert outcome(gf.bisection_inverse, g, a) == \
                    outcome(bisection_inverse_oracle, g, a)
            else:
                for product in (gf.bisection_product, bisection_product_oracle):
                    with pytest.raises((AssertionError, IndexError, OverflowError, ValueError)):
                        product(g, a, b)

    def test_first_pair_that_does_not_compose(self):
        g = forced_arrow_structure()
        a, b = gf.Bisection((3, 1, 2)), gf.Bisection((0, 3, 2))
        with pytest.raises(ValueError) as got:
            gf.bisection_product(g, a, b)
        with pytest.raises(ValueError) as expect:
            bisection_product_oracle(g, a, b)
        assert str(got.value) == str(expect.value) == "arrows 3 and 3 do not compose"

    @pytest.mark.parametrize("build", [
        lambda: gf.pair_groupoid(1),
        lambda: gf.pair_groupoid(4),
        lambda: gf.group_groupoid(gf.cyclic_table(5)),
        lambda: gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3), gf.cyclic_table(2)]),
        lambda: gf.transformation_groupoid(gf.cyclic_table(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
        lambda: gf.product_with_pair_groupoid(gf.group_groupoid(gf.cyclic_table(2))),
    ])
    def test_bisection_group_record(self, build):
        g = build()
        gamma = gf.enumerate_bisections(g)
        record = [r for r in suite_axioms(g, np.random.default_rng(0), 1e-9)
                  if r.name == "axioms/bisection-group"]
        assert record[0].status == ("pass" if bisection_group_oracle(g, gamma) else "fail")
        assert record[0].value == f"order {len(gamma)}"


class TestCoverage:
    def test_arrows_on_bisections_match_the_search(self, g):
        rep = gf.duality_report(g)
        assert rep.arrows_on_bisections == tuple(
            gf.bisection_through(g, x) is not None for x in range(g.n_arrows)
        )

    @pytest.mark.parametrize("build", [no_bisection_structure, forced_arrow_structure])
    def test_invalid_structures(self, build):
        g = build()
        covered = tuple(gf.bisection_through(g, x) is not None for x in range(g.n_arrows))
        assert gf.duality_report(g).arrows_on_bisections == covered
        assert not all(covered)


class TestInjectivity:
    def test_coinciding_pairs_are_named_in_order(self, g3, monkeypatch):
        gamma = gf.enumerate_bisections(g3)
        listed = [gamma[1], gamma[0], gamma[1], gamma[2], gamma[0], gamma[1]]
        monkeypatch.setattr(dual, "enumerate_bisections", lambda g: listed)
        rep = gf.duality_report(g3)
        expect = [f"pairs coincide for {listed[i].picks} and {listed[k].picks}"
                  for i in range(len(listed)) for k in range(i + 1, len(listed))
                  if listed[i] == listed[k]]
        assert not rep.injective and len(expect) == 4
        assert [f for f in rep.failures if f.startswith("pairs")] == expect


class TestBlocksAgainstDenseOperators:
    def test_reduced_norm(self, g, weighted_bundle, rng):
        for h in (g, weighted_bundle):
            for _ in range(5):
                f = random_function(h, rng)
                assert abs(gf.reduced_norm(h, f) - reduced_norm_oracle(h, f)) <= 1e-12

    def test_pd_to_section(self, g, rng):
        for _ in range(5):
            phi = random_pd(g, rng)
            assert np.abs(gf.pd_to_section(g, phi) - pd_to_section_oracle(g, phi)).max() <= 1e-12
        phi = random_function(g, rng)
        assert outcome(gf.pd_to_section, g, phi) == outcome(pd_to_section_oracle, g, phi)

    def test_pd_to_section_needs_counting_weights(self, weighted_bundle, rng):
        phi = random_pd(weighted_bundle, rng)
        assert outcome(gf.pd_to_section, weighted_bundle, phi) == \
            outcome(pd_to_section_oracle, weighted_bundle, phi)


class TestMalformedModuleMaps:
    def test_one_dimensional_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            gf.ModuleMap(matrix=np.ones(9), side="right")

    def test_three_dimensional_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            gf.ModuleMap(matrix=np.ones((3, 9, 1)), side="left")

    def test_nan_in_a_bisection_map(self, g3):
        m = gf.range_evaluation_map(g3, gf.identity_bisection(g3)).matrix.copy()
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            gf.ModuleMap(matrix=m, side="right")

    def test_infinite_entry(self, g3):
        with pytest.raises(ValueError, match="finite"):
            gf.ModuleMap(matrix=np.full((3, 9), np.inf), side="right")

    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_pair_of_wrong_shape(self, g3, rows):
        e = gf.identity_bisection(g3)
        wrong = gf.ModuleMap(matrix=np.eye(rows, 9), side="right")
        with pytest.raises(ValueError, match=r"\(3, 9\)"):
            gf.verify_module_map_pair(g3, wrong, gf.source_evaluation_map(g3, e))

    def test_left_map_of_wrong_shape(self, g3):
        e = gf.identity_bisection(g3)
        wrong = gf.ModuleMap(matrix=np.eye(3, 8), side="left")
        with pytest.raises(ValueError, match=r"\(3, 9\)"):
            gf.verify_module_map_pair(g3, gf.range_evaluation_map(g3, e), wrong)

    def test_support_analysis_of_wrong_shape(self, g3):
        with pytest.raises(ValueError, match=r"\(3, 9\)"):
            gf.support_analysis(g3, gf.ModuleMap(matrix=np.eye(2, 9), side="right"))
