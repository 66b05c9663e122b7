import contextlib
import dataclasses
import itertools

import numpy as np
import pytest

import gfourier as gf


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def g2():
    return gf.pair_groupoid(2)


@pytest.fixture(scope="session")
def g3():
    return gf.pair_groupoid(3)


@pytest.fixture(scope="session")
def g4():
    return gf.pair_groupoid(4)


@pytest.fixture(scope="session")
def z2():
    return gf.group_groupoid(gf.cyclic_table(2))


@pytest.fixture(scope="session")
def z3():
    return gf.group_groupoid(gf.cyclic_table(3))


@pytest.fixture(scope="session")
def bundle23():
    return gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)])


@pytest.fixture(scope="session")
def weighted_bundle():
    return gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)], unit_weights=[2.0, 0.5])


@pytest.fixture(scope="session")
def transf():
    # cyclic rotation on three points
    return gf.transformation_groupoid(gf.cyclic_table(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def no_bisection_structure():
    """Two units whose claimed identity at unit 1 has source 0.

    Not a valid groupoid (validate flags it); both range fibers then share
    source 0, so no bisection exists.  Used for negative-path coverage.
    """
    return gf.FiniteGroupoid(
        range_of=np.array([0, 1]),
        source_of=np.array([0, 0]),
        inverse_of=np.array([0, 1]),
        compose_table=np.array([[0, -1], [1, -1]]),
        unit_arrows=np.array([0, 1]),
        weights=np.ones(2),
    )


def forced_arrow_structure():
    """Three units plus an extra arrow 0 <- 1 with no inverse arrow present.

    Invalid as a groupoid, but the pick combinatorics are well defined: any
    bisection through arrow 3 would need two picks with source 1.
    """
    return gf.FiniteGroupoid(
        range_of=np.array([0, 1, 2, 0]),
        source_of=np.array([0, 1, 2, 1]),
        inverse_of=np.array([0, 1, 2, 3]),
        compose_table=np.array(
            [
                [0, -1, -1, 3],
                [-1, 1, -1, -1],
                [-1, -1, 2, -1],
                [-1, 3, -1, -1],
            ]
        ),
        unit_arrows=np.array([0, 1, 2]),
        weights=np.ones(4),
    )


def z12_on_16_points(unit_weights=None):
    """Z12 acting on a free orbit of 12 points and an orbit of 4 points with isotropy Z3."""
    action = [[(p + k) % 12 for p in range(12)] + [12 + (p + k) % 4 for p in range(4)]
              for k in range(12)]
    return gf.transformation_groupoid(gf.cyclic_table(12), action, unit_weights)


def z4_on_4_points_through_z2():
    """Z4 acting on 4 points through Z2: two orbits of 2 units, isotropy Z2 = {0, 2}."""
    return gf.transformation_groupoid(gf.cyclic_table(4), [[0, 1, 2, 3], [1, 0, 3, 2]] * 2)


def _s3(identity_last=False):
    """The permutations of three points, in lexicographic order or reversed
    so that the identity is the last element, and their multiplication table."""
    perms = list(itertools.permutations(range(3)))
    if identity_last:
        perms.reverse()
    index = {p: i for i, p in enumerate(perms)}
    return perms, [[index[tuple(a[b[i]] for i in range(3))] for b in perms] for a in perms]


def s3_on_three_points(unit_weights=None, identity_last=False):
    """S3 permuting three points: one orbit of 3 units with isotropy Z2.

    With ``identity_last`` the identity is the last group element, so every
    unit arrow comes after the other arrows of its fiber.
    """
    perms, table = _s3(identity_last)
    return gf.transformation_groupoid(table, [list(p) for p in perms], unit_weights)


@pytest.fixture(scope="session")
def s3_moved():
    """S3 as a one-unit groupoid whose identity is its last arrow."""
    return gf.group_groupoid(_s3(identity_last=True)[1])


def range_weighted_pair3():
    """pair(3) with Haar weights of the range unit: not left invariant."""
    g = gf.pair_groupoid(3)
    return dataclasses.replace(g, weights=np.array([1.0, 2.0, 0.5])[g.range_of])


# every function that reads the orbit index (``FiniteGroupoid.fiber_classes``),
# as a call on a groupoid and an arrow function
INDEX_READERS = {
    "is_positive_definite": gf.is_positive_definite,
    "pd_verdict_pointset": gf.pd_verdict_pointset,
    "pd_verdict_integral": gf.pd_verdict_integral,
    "gns_bundle": gf.gns_bundle,
    "pd_to_section": gf.pd_to_section,
    "reduced_norm": gf.reduced_norm,
    "operator_norm": lambda g, phi: gf.operator_norm(g, gf.right_op(g, phi)),
    "fourier_stieltjes_norm": gf.fourier_stieltjes_norm,
    "fourier_norm_bounds": gf.fourier_norm_bounds,
}


@contextlib.contextmanager
def refused_by_the_index(g):
    """Expect ``ValueError`` with ``validate``'s first violation of g, word for
    word: the orbit index refuses weights that are not a left Haar system."""
    first = gf.validate(g).violations[0]
    with pytest.raises(ValueError) as err:
        yield
    assert str(err.value) == first


def random_function(g, rng):
    return rng.standard_normal(g.n_arrows) + 1j * rng.standard_normal(g.n_arrows)


def random_pd(g, rng, mixture=True):
    f = random_function(g, rng)
    phi = gf.regular_coefficient(g, f, f)
    if mixture and rng.random() < 0.5:
        h = random_function(g, rng)
        phi = phi + 0.7 * gf.regular_coefficient(g, h, h)
    return phi
