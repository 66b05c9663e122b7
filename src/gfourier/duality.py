"""Bisection duality: evaluation module maps, their axioms, and reconstruction.

A bisection induces a pair of evaluation maps on arrow functions: along its
range section (a right module map) and along its source section (a left
module map), linked by the unit bijection of the bisection.  The round trip
recovers the bisection from the support of the maps on point masses, and the
assignment bisection -> map pair is injective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import act_bisection, arrow_function, delta, module_action
from .groupoid import (
    Bisection,
    FiniteGroupoid,
    bisection_product,
    bisection_through,
    enumerate_bisections,
    is_bisection,
    source_permutation,
)

SUPPORT_TOL = 1e-12


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
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))

    def __call__(self, f) -> np.ndarray:
        return self.matrix @ np.asarray(f, dtype=complex)


def range_evaluation_map(g: FiniteGroupoid, a: Bisection) -> ModuleMap:
    """alpha(f)(u) = f(arrow of a with range u); a right module map."""
    m = np.zeros((g.n_units, g.n_arrows), dtype=complex)
    for u, x in enumerate(a.picks):
        m[u, x] = 1.0
    return ModuleMap(matrix=m, side="right")


def source_evaluation_map(g: FiniteGroupoid, a: Bisection) -> ModuleMap:
    """beta(f)(u) = f(arrow of a with source u); a left module map."""
    m = np.zeros((g.n_units, g.n_arrows), dtype=complex)
    sigma = source_permutation(g, a)
    for u, x in enumerate(a.picks):
        m[int(sigma[u]), x] = 1.0
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
    worst, where = 0.0, ""
    side = m.side
    for u in range(g.n_units):
        b = np.zeros(g.n_units, dtype=complex)
        b[u] = 1.0
        for x in range(g.n_arrows):
            f = delta(g, x)
            acted = m(module_action(g, b, f, side))
            if side == "right":
                expect = m(f) * b
            else:
                expect = b * m(f)
            d = float(np.abs(acted - expect).max(initial=0.0))
            if d > worst:
                worst, where = d, f"unit function at {u}, point mass at arrow {x}"
    return worst, where


def verify_module_map_pair(
    g: FiniteGroupoid, alpha: ModuleMap, beta: ModuleMap, tol: float = 1e-9
) -> PairReport:
    """Check the multiplicative-module-map axioms for a candidate pair."""
    if alpha.side != "right" or beta.side != "left":
        raise ValueError("expected a right map and a left map, in that order")
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
    n = g.n_units
    j = []
    for u in range(n):
        hits = [
            v for v in range(n)
            if float(np.abs(beta.matrix[v] - alpha.matrix[u]).max(initial=0.0)) <= tol
        ]
        if len(hits) != 1:
            return None
        j.append(hits[0])
    if sorted(j) != list(range(n)):
        return None
    return tuple(j)


def _multiplicativity(g, alpha, tol) -> tuple[bool, str]:
    """Pointwise multiplicativity over point masses (spans the product behavior)."""
    m = alpha.matrix
    for x in range(g.n_arrows):
        for y in range(g.n_arrows):
            product = m[:, x] * m[:, y]
            expect = m[:, x] if x == y else np.zeros(g.n_units, dtype=complex)
            if float(np.abs(product - expect).max(initial=0.0)) > tol:
                return False, (
                    f"multiplicativity fails on point masses at arrows {x}, {y}"
                )
    return True, ""


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


def support_analysis(g: FiniteGroupoid, alpha: ModuleMap, tol: float = SUPPORT_TOL) -> SupportAnalysis:
    active, dead = set(), set()
    for x in range(g.n_arrows):
        col = alpha.matrix[:, x]
        if abs(col[int(g.range_of[x])]) > tol:
            active.add(x)
        elif float(np.abs(col).max(initial=0.0)) <= tol:
            dead.add(x)
    active_units = {int(g.range_of[x]) for x in active}
    singleton_ok = all(
        sum(1 for x in active if int(g.range_of[x]) == u) == 1 for u in active_units
    )
    return SupportAnalysis(
        active=frozenset(active),
        dead=frozenset(dead),
        active_units=frozenset(active_units),
        dead_units=frozenset(set(range(g.n_units)) - active_units),
        singleton_ok=singleton_ok,
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
    analysis = support_analysis(g, alpha)
    if analysis.active_units != set(range(g.n_units)):
        missing = min(set(range(g.n_units)) - set(analysis.active_units))
        raise ReconstructionError(f"no active arrow over unit {missing}", unit=missing)
    if not analysis.singleton_ok:
        for u in range(g.n_units):
            if sum(1 for x in analysis.active if int(g.range_of[x]) == u) != 1:
                raise ReconstructionError(f"support over unit {u} is not a singleton", unit=u)
    picks = [0] * g.n_units
    for x in analysis.active:
        picks[int(g.range_of[x])] = int(x)
    if not is_bisection(g, picks):
        bad = _first_source_collision(g, picks)
        raise ReconstructionError(f"support sources collide at unit {bad}", unit=bad)
    sigma = tuple(int(g.source_of[x]) for x in picks)
    if report.unit_bijection != sigma:
        bad = next(u for u in range(g.n_units) if report.unit_bijection[u] != sigma[u])
        raise ReconstructionError(
            f"unit bijection disagrees with the support sources at unit {bad}", unit=bad
        )
    beta_active = {
        x for x in range(g.n_arrows)
        if abs(beta.matrix[int(g.source_of[x]), x]) > SUPPORT_TOL
    }
    if beta_active != set(picks):
        bad_arrows = beta_active.symmetric_difference(picks)
        bad = min(int(g.range_of[x]) for x in bad_arrows)
        raise ReconstructionError(f"left/right supports disagree near unit {bad}", unit=bad)
    return Bisection(tuple(picks))


def _first_source_collision(g, picks) -> int:
    seen: dict[int, int] = {}
    for u, x in enumerate(picks):
        s = int(g.source_of[x])
        if s in seen:
            return u
        seen[s] = u
    return 0


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


def duality_report(g: FiniteGroupoid, max_product_checks: int = 64) -> DualityReport:
    """Enumerate the bisection group and run the full duality round trip.

    Checks per arrow whether some bisection passes through it, per bisection
    that the evaluation pair reconstructs it, that distinct bisections give
    distinct pairs, and that reconstruction intertwines the group product.
    """
    gamma = enumerate_bisections(g)
    failures: list[str] = []
    covered = tuple(bisection_through(g, x) is not None for x in range(g.n_arrows))

    pairs = []
    roundtrip = []
    for a in gamma:
        alpha = range_evaluation_map(g, a)
        beta = source_evaluation_map(g, a)
        pairs.append((alpha, beta))
        try:
            back = reconstruct_bisection(g, alpha, beta)
            ok = back == a
        except ReconstructionError as err:
            ok = False
            failures.append(f"reconstruction failed for {a.picks}: {err}")
        if not ok:
            failures.append(f"round trip failed for {a.picks}")
        roundtrip.append(ok)

    injective = True
    for i in range(len(gamma)):
        for k in range(i + 1, len(gamma)):
            same = np.array_equal(pairs[i][0].matrix, pairs[k][0].matrix) and \
                np.array_equal(pairs[i][1].matrix, pairs[k][1].matrix)
            if same:
                injective = False
                failures.append(f"pairs coincide for {gamma[i].picks} and {gamma[k].picks}")

    product_ok = True
    checked = 0
    for a in gamma:
        for b in gamma:
            if checked >= max_product_checks:
                break
            ab = bisection_product(g, a, b)
            alpha = range_evaluation_map(g, ab)
            beta = source_evaluation_map(g, ab)
            try:
                if reconstruct_bisection(g, alpha, beta) != ab:
                    product_ok = False
            except ReconstructionError:
                product_ok = False
            checked += 1
        if checked >= max_product_checks:
            break
    if not product_ok:
        failures.append("product compatibility spot check failed")

    return DualityReport(
        bisection_count=len(gamma),
        arrows_on_bisections=covered,
        roundtrip_ok=tuple(roundtrip),
        injective=injective,
        product_spot_ok=product_ok,
        failures=tuple(failures),
    )


def translation_covariance_defect(g: FiniteGroupoid, a: Bisection, f) -> float:
    """Evaluating along a after untranslating by a equals evaluating at units."""
    f = arrow_function(g, f)
    from .groupoid import bisection_inverse, identity_bisection

    alpha_a = range_evaluation_map(g, a)
    alpha_e = range_evaluation_map(g, identity_bisection(g))
    moved = act_bisection(g, bisection_inverse(g, a), f, side="left")
    return float(np.abs(alpha_a(moved) - alpha_e(f)).max(initial=0.0))
