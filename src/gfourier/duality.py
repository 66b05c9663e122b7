"""Bisection duality: evaluation module maps, their axioms, and reconstruction.

A bisection induces a pair of evaluation maps on arrow functions: along its
range section (a right module map) and along its source section (a left
module map), linked by the unit bijection of the bisection.  The round trip
recovers the bisection from the support of the maps on point masses, and the
assignment bisection -> map pair is injective.

Each axiom is checked once on the whole matrix rather than point mass by
point mass.  On point masses the module law says that column x of a map is
supported on x's own unit (its range for a right map, its source for a left
map); multiplicativity compares each row's outer product with its diagonal,
one row at a time; the unit bijection J is read off by matching the rows of
beta against the rows of alpha.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import act_bisection, arrow_function
from .groupoid import (
    Bisection,
    FiniteGroupoid,
    bisection_inverse,
    bisection_product,
    enumerate_bisections,
    identity_bisection,
    is_bisection,
    source_permutation,
)

SUPPORT_TOL = 1e-12
# products of bisections whose round trip duality_report checks
MAX_PRODUCT_CHECKS = 64


@dataclass(frozen=True)
class ModuleMap:
    """Linear map from arrow functions to unit functions, with a module side.

    ``matrix`` has shape (n_units, n_arrows); column x is the image of the
    point mass at arrow x.  A right map satisfies alpha(f b) = alpha(f) b for
    unit functions b acting on the range side; a left map satisfies
    beta(b f) = b beta(f) for the source-side action.
    """

    matrix: np.ndarray
    side: str

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.ndim != 2 or not np.all(np.isfinite(matrix)):
            raise ValueError(f"a module map needs a finite 2-D matrix, got shape {matrix.shape}")
        object.__setattr__(self, "matrix", matrix)

    def __call__(self, f) -> np.ndarray:
        return self.matrix @ np.asarray(f, dtype=complex)


def range_evaluation_map(g: FiniteGroupoid, a: Bisection) -> ModuleMap:
    """alpha(f)(u) = f(arrow of a with range u); a right module map."""
    m = np.zeros((g.n_units, g.n_arrows), dtype=complex)
    m[np.arange(g.n_units), np.asarray(a.picks, dtype=int)] = 1.0
    return ModuleMap(matrix=m, side="right")


def source_evaluation_map(g: FiniteGroupoid, a: Bisection) -> ModuleMap:
    """beta(f)(u) = f(arrow of a with source u); a left module map."""
    m = np.zeros((g.n_units, g.n_arrows), dtype=complex)
    m[source_permutation(g, a), np.asarray(a.picks, dtype=int)] = 1.0
    return ModuleMap(matrix=m, side="left")


@dataclass(frozen=True)
class PairReport:
    """Outcome of the module-map pair axioms.

    ``unit_bijection`` is the map J with beta(f)(J(u)) = alpha(f)(u) when one
    exists.  Compactness of the restricted maps holds automatically at finite
    scale and is recorded, not tested.
    """

    module_law_ok: bool
    nonvanishing_ok: bool
    unit_bijection: tuple[int, ...] | None
    multiplicative_ok: bool
    compactness: str
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.module_law_ok and self.nonvanishing_ok and \
            self.unit_bijection is not None and self.multiplicative_ok


def _module_law_defect(g: FiniteGroupoid, m: ModuleMap) -> tuple[float, str]:
    """Largest module-law failure on (unit function at u, point mass at x).

    The law keeps column x on x's own unit only, so the defect at (u, x) is
    |m[u, x]| off that unit and the largest |m[v, x]|, v != u, on it; the
    witness is the first maximum in (u, x) row-major order.
    """
    own = g.range_of if m.side == "right" else g.source_of
    cols = np.arange(g.n_arrows)
    defect = np.abs(m.matrix)
    defect[own, cols] = 0.0
    defect[own, cols] = defect.max(axis=0, initial=0.0)
    worst = float(defect.max(initial=0.0))
    if worst == 0.0:
        return 0.0, ""
    u, x = divmod(int(defect.argmax()), g.n_arrows)
    return worst, f"unit function at {u}, point mass at arrow {x}"


def _check_shape(g: FiniteGroupoid, *maps: ModuleMap) -> None:
    for m in maps:
        if m.matrix.shape != (g.n_units, g.n_arrows):
            raise ValueError(f"a module map needs shape (n_units, n_arrows) = "
                             f"({g.n_units}, {g.n_arrows}), got {m.matrix.shape}")


def verify_module_map_pair(
    g: FiniteGroupoid, alpha: ModuleMap, beta: ModuleMap, tol: float = 1e-9
) -> PairReport:
    """Check the multiplicative-module-map axioms for a candidate pair."""
    if alpha.side != "right" or beta.side != "left":
        raise ValueError("expected a right map and a left map, in that order")
    _check_shape(g, alpha, beta)
    failures: list[str] = []

    defect_a, where_a = _module_law_defect(g, alpha)
    defect_b, where_b = _module_law_defect(g, beta)
    module_ok = defect_a <= tol and defect_b <= tol
    if defect_a > tol:
        failures.append(f"right module law fails ({defect_a:.3e} at {where_a})")
    if defect_b > tol:
        failures.append(f"left module law fails ({defect_b:.3e} at {where_b})")

    row_mass = np.abs(alpha.matrix).max(axis=1, initial=0.0)
    nonvanishing = bool(row_mass.min(initial=np.inf) > tol)
    if not nonvanishing:
        dead = int(row_mass.argmin())
        failures.append(f"alpha vanishes identically at unit {dead}")

    j_map = _match_unit_bijection(g, alpha, beta, tol)
    if j_map is None:
        failures.append("no unit bijection links beta to alpha")

    mult_ok, mult_msg = _multiplicativity(g, alpha, tol)
    if not mult_ok:
        failures.append(mult_msg)

    return PairReport(
        module_law_ok=module_ok,
        nonvanishing_ok=nonvanishing,
        unit_bijection=j_map,
        multiplicative_ok=mult_ok,
        compactness="satisfied-by-finiteness",
        failures=tuple(failures),
    )


def _match_unit_bijection(g, alpha, beta, tol) -> tuple[int, ...] | None:
    """J with beta-row at J(u) equal to alpha-row at u; None if absent or ambiguous."""
    # close[u, v]: beta's row v matches alpha's row u
    close = np.abs(beta.matrix - alpha.matrix[:, None, :]).max(axis=2, initial=0.0) <= tol
    j = close.argmax(axis=1)
    if np.any(close.sum(axis=1) != 1) or not np.array_equal(np.sort(j), np.arange(g.n_units)):
        return None
    return tuple(j.tolist())


def _multiplicativity(g, alpha, tol) -> tuple[bool, str]:
    """Multiplicativity on point masses: m[u, x] m[u, y] = delta_xy m[u, x].

    Checked for all (x, y) at once, one unit row u at a time; the witness is
    the first failing (x, y) in row-major order.
    """
    n = g.n_arrows
    first = n * n
    for row in alpha.matrix:
        defect = np.outer(row, row)
        defect.flat[:: n + 1] -= row
        fails = np.abs(defect) > tol
        if fails.any():
            first = min(first, int(fails.argmax()))
    if first == n * n:
        return True, ""
    x, y = divmod(first, n)
    return False, f"multiplicativity fails on point masses at arrows {x}, {y}"


@dataclass(frozen=True)
class SupportAnalysis:
    """Support of a right module map on point masses.

    ``active`` holds arrows whose point mass is seen by the map at their
    range; ``dead`` those annihilated entirely; ``active_units``/``dead_units``
    the corresponding unit sets.
    """

    active: frozenset[int]
    dead: frozenset[int]
    active_units: frozenset[int]
    dead_units: frozenset[int]
    singleton_ok: bool


def _own_support(m: ModuleMap, own: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Mask of the arrows x with |m[own[x], x]| > tol."""
    return np.abs(m.matrix[own, np.arange(own.size)]) > tol


def support_analysis(g: FiniteGroupoid, alpha: ModuleMap, tol: float = SUPPORT_TOL) -> SupportAnalysis:
    _check_shape(g, alpha)
    active = _own_support(alpha, g.range_of, tol)
    dead = np.abs(alpha.matrix).max(axis=0, initial=0.0) <= tol
    per_unit = np.bincount(g.range_of[active], minlength=g.n_units)
    return SupportAnalysis(
        active=frozenset(np.flatnonzero(active).tolist()),
        dead=frozenset(np.flatnonzero(dead).tolist()),
        active_units=frozenset(np.flatnonzero(per_unit).tolist()),
        dead_units=frozenset(np.flatnonzero(per_unit == 0).tolist()),
        singleton_ok=bool(np.all(per_unit <= 1)),
    )


class ReconstructionError(ValueError):
    def __init__(self, msg: str, unit: int | None = None):
        super().__init__(msg)
        self.unit = unit


def reconstruct_bisection(g: FiniteGroupoid, alpha: ModuleMap, beta: ModuleMap) -> Bisection:
    """Recover the bisection whose evaluation maps are (alpha, beta).

    Requires the pair axioms; the support of alpha picks one arrow per unit,
    the source map must realize the unit bijection, and beta's support must
    agree arrow-for-arrow.
    """
    report = verify_module_map_pair(g, alpha, beta)
    if not report.ok:
        raise ReconstructionError("; ".join(report.failures) or "pair axioms fail")
    active = _own_support(alpha, g.range_of)
    per_unit = np.bincount(g.range_of[active], minlength=g.n_units)
    if not per_unit.all():
        missing = int(np.argmin(per_unit))
        raise ReconstructionError(f"no active arrow over unit {missing}", unit=missing)
    if np.any(per_unit != 1):
        u = int(np.argmax(per_unit != 1))
        raise ReconstructionError(f"support over unit {u} is not a singleton", unit=u)
    picks = np.empty(g.n_units, dtype=int)
    picks[g.range_of[active]] = np.flatnonzero(active)
    sigma = g.source_of[picks]
    if not is_bisection(g, picks):
        # the first unit whose pick has the source of an earlier unit's pick
        bad = int(np.argmax(np.tril(sigma[:, None] == sigma[None, :], k=-1).any(axis=1)))
        raise ReconstructionError(f"support sources collide at unit {bad}", unit=bad)
    if report.unit_bijection != tuple(sigma.tolist()):
        bad = int(np.argmax(np.array(report.unit_bijection) != sigma))
        raise ReconstructionError(
            f"unit bijection disagrees with the support sources at unit {bad}", unit=bad
        )
    picked = np.zeros(g.n_arrows, dtype=bool)
    picked[picks] = True
    disagree = _own_support(beta, g.source_of) != picked
    if disagree.any():
        bad = int(g.range_of[disagree].min())
        raise ReconstructionError(f"left/right supports disagree near unit {bad}", unit=bad)
    return Bisection(tuple(picks.tolist()))


@dataclass(frozen=True)
class DualityReport:
    """Round-trip results for the bisection group of a groupoid."""

    bisection_count: int
    arrows_on_bisections: tuple[bool, ...]
    roundtrip_ok: tuple[bool, ...]
    injective: bool
    product_spot_ok: bool
    failures: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return all(self.roundtrip_ok) and self.injective and self.product_spot_ok


def duality_report(g: FiniteGroupoid) -> DualityReport:
    """Enumerate the bisection group and run the full duality round trip.

    Checks per arrow whether some bisection passes through it, per bisection
    that the evaluation pair reconstructs it, that distinct bisections give
    distinct pairs, and that reconstruction intertwines the group product on
    the first ``MAX_PRODUCT_CHECKS`` pairs of bisections.
    """
    gamma = enumerate_bisections(g)
    failures: list[str] = []
    # an arrow lies on a bisection exactly when some enumerated bisection picks it
    covered = np.zeros(g.n_arrows, dtype=bool)
    covered[np.array([a.picks for a in gamma], dtype=int).ravel()] = True

    roundtrip = []
    by_pair: dict[bytes, list[int]] = {}
    for i, a in enumerate(gamma):
        alpha = range_evaluation_map(g, a)
        beta = source_evaluation_map(g, a)
        by_pair.setdefault(alpha.matrix.tobytes() + beta.matrix.tobytes(), []).append(i)
        try:
            back = reconstruct_bisection(g, alpha, beta)
            ok = back == a
        except ReconstructionError as err:
            ok = False
            failures.append(f"reconstruction failed for {a.picks}: {err}")
        if not ok:
            failures.append(f"round trip failed for {a.picks}")
        roundtrip.append(ok)

    coincide = sorted(
        pair for group in by_pair.values() for pair in itertools.combinations(group, 2)
    )
    failures += [f"pairs coincide for {gamma[i].picks} and {gamma[k].picks}" for i, k in coincide]

    product_ok = True
    for a, b in itertools.islice(itertools.product(gamma, gamma), MAX_PRODUCT_CHECKS):
        ab = bisection_product(g, a, b)
        alpha, beta = range_evaluation_map(g, ab), source_evaluation_map(g, ab)
        try:
            if reconstruct_bisection(g, alpha, beta) != ab:
                product_ok = False
        except ReconstructionError:
            product_ok = False
    if not product_ok:
        failures.append("product compatibility spot check failed")

    return DualityReport(
        bisection_count=len(gamma),
        arrows_on_bisections=tuple(covered.tolist()),
        roundtrip_ok=tuple(roundtrip),
        injective=not coincide,
        product_spot_ok=product_ok,
        failures=tuple(failures),
    )


def translation_covariance_defect(g: FiniteGroupoid, a: Bisection, f) -> float:
    """Evaluating along a after untranslating by a equals evaluating at units."""
    f = arrow_function(g, f)
    alpha_a = range_evaluation_map(g, a)
    alpha_e = range_evaluation_map(g, identity_bisection(g))
    moved = act_bisection(g, bisection_inverse(g, a), f, side="left")
    return float(np.abs(alpha_a(moved) - alpha_e(f)).max(initial=0.0))
