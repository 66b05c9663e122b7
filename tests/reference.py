"""Independent reference computations used as test oracles.

Everything here works straight from the composition table by exhaustive
summation or search, deliberately avoiding the fiber-indexed code paths of
the package.  Later sections keep the earlier loop versions of the
bisection layer, the duality axioms and two block computations, and the
Kronecker null-space commutant with the dense per-generator loops of the
regular representation, and the entry-by-entry SDP builder, which the array
versions in the package must reproduce.  The last section is the brute-force
factorization search that the coefficient-norm tests compare against; it is
the only user of scipy.
"""

import itertools

import numpy as np
from scipy.optimize import minimize

from gfourier.algebra import arrow_function, delta, module_action, star
from gfourier.duality import (
    SUPPORT_TOL,
    ReconstructionError,
    SupportAnalysis,
    verify_module_map_pair,
)
from gfourier.groupoid import (
    UNDEFINED,
    Bisection,
    FiniteGroupoid,
    ValidationReport,
    identity_bisection,
)
from gfourier.numerics import RANK_TOL, hermitian_eigen, hermitian_sqrt, nullspace
from gfourier.positivity import (
    PSD_TOL,
    BundleSection,
    GHilbertBundle,
    PdVerdict,
    _non_hermitian_witness,
    is_positive_definite,
    regular_coefficient,
)
from gfourier.regular import left_op, operator_norm, right_op, section_norm, unit_blocks


def convolve_oracle(g, f, h):
    """Sum w(a) f(a) h(b) over all factorizations x = a b."""
    out = np.zeros(g.n_arrows, dtype=complex)
    for a in range(g.n_arrows):
        for b in range(g.n_arrows):
            x = g.compose_table[a, b]
            if x != UNDEFINED:
                out[x] += g.weights[a] * f[a] * h[b]
    return out


def triple_convolve_oracle(g, f, h, k):
    """Sum over all factorizations x = a b c, association-free."""
    out = np.zeros(g.n_arrows, dtype=complex)
    for a in range(g.n_arrows):
        for b in range(g.n_arrows):
            ab = g.compose_table[a, b]
            if ab == UNDEFINED:
                continue
            for c in range(g.n_arrows):
                x = g.compose_table[ab, c]
                if x != UNDEFINED:
                    out[x] += g.weights[a] * g.weights[b] * f[a] * h[b] * k[c]
    return out


def coefficient_oracle(g, f, h):
    """(f, h)(x) by summing over all t with range(t) = range(x)."""
    out = np.zeros(g.n_arrows, dtype=complex)
    for x in range(g.n_arrows):
        for t in range(g.n_arrows):
            if g.range_of[t] != g.range_of[x]:
                continue
            y = g.compose_table[g.inverse_of[x], t]
            out[x] += g.weights[t] * np.conj(f[y]) * h[t]
    return out


def d_inner_oracle(g, xi, eta):
    out = np.zeros(g.n_units, dtype=complex)
    for x in range(g.n_arrows):
        out[g.range_of[x]] += g.weights[x] * np.conj(xi[x]) * eta[x]
    return out


def pd_double_sum_oracle(g, phi, u, f):
    """The positive-definiteness integral at unit u for a test function f on arrows."""
    total = 0.0 + 0.0j
    for x in range(g.n_arrows):
        if g.range_of[x] != u:
            continue
        for y in range(g.n_arrows):
            if g.range_of[y] != u:
                continue
            z = g.compose_table[g.inverse_of[y], x]
            total += g.weights[x] * g.weights[y] * phi[z] * f[y] * np.conj(f[x])
    return total


def all_pick_maps(g):
    """Every unit -> arrow-in-its-range-fiber assignment (bisection brute force)."""
    fibers = [np.flatnonzero(g.range_of == u) for u in range(g.n_units)]
    return itertools.product(*[map(int, fib) for fib in fibers])


def bisections_brute_force(g):
    found = []
    for picks in all_pick_maps(g):
        if sorted(int(g.source_of[x]) for x in picks) == list(range(g.n_units)):
            found.append(tuple(picks))
    return sorted(found)


def bisections_through_brute_force(g, x):
    return [p for p in bisections_brute_force(g) if x in p]


def groupoids_isomorphic(g1, g2):
    """Brute-force search for an arrow bijection preserving all structure."""
    if g1.n_arrows != g2.n_arrows or g1.n_units != g2.n_units:
        return False
    n = g1.n_arrows
    for unit_map in itertools.permutations(range(g2.n_units)):
        candidates = []
        for x in range(n):
            ok = [
                y for y in range(n)
                if g2.range_of[y] == unit_map[g1.range_of[x]]
                and g2.source_of[y] == unit_map[g1.source_of[x]]
            ]
            if not ok:
                break
            candidates.append(ok)
        else:
            for assignment in itertools.product(*candidates):
                if len(set(assignment)) != n:
                    continue
                if _respects_structure(g1, g2, assignment):
                    return True
    return False


def _respects_structure(g1, g2, assignment):
    n = g1.n_arrows
    for x in range(n):
        if assignment[g1.inverse_of[x]] != g2.inverse_of[assignment[x]]:
            return False
    for x in range(n):
        for y in range(n):
            z1 = g1.compose_table[x, y]
            z2 = g2.compose_table[assignment[x], assignment[y]]
            if (z1 == UNDEFINED) != (z2 == UNDEFINED):
                return False
            if z1 != UNDEFINED and assignment[z1] != z2:
                return False
    return True


def validate_oracle(g, max_report=50):
    """The axiom check as a plain loop over arrows, pairs and triples."""
    bad: list[str] = []

    def note(msg):
        if len(bad) < max_report:
            bad.append(msg)

    n = g.n_arrows
    if sorted(map(int, g.unit_arrows)) != sorted(set(map(int, g.unit_arrows))):
        note("unit arrows are not distinct")
    for u, e in enumerate(g.unit_arrows):
        if g.range_of[e] != u or g.source_of[e] != u:
            note(f"unit arrow {e} of unit {u} has range {g.range_of[e]}, source {g.source_of[e]}")
        if g.inverse_of[e] != e:
            note(f"unit arrow {e} is not fixed by inversion")
    for x in range(n):
        xi = g.inverse_of[x]
        if g.range_of[xi] != g.source_of[x] or g.source_of[xi] != g.range_of[x]:
            note(f"inverse of {x} swaps range/source incorrectly")
        if g.inverse_of[xi] != x:
            note(f"inversion is not involutive at {x}")
    for x in range(n):
        for y in range(n):
            z = g.compose_table[x, y]
            defined = z != UNDEFINED
            should = g.source_of[x] == g.range_of[y]
            if defined != should:
                note(f"composition of ({x}, {y}) defined={defined}, expected {should}")
            elif defined:
                if g.range_of[z] != g.range_of[x] or g.source_of[z] != g.source_of[y]:
                    note(f"product {x}{y}={z} has wrong endpoints")
    for x in range(n):
        er = g.unit_arrows[g.range_of[x]]
        es = g.unit_arrows[g.source_of[x]]
        if g.compose_table[er, x] != x:
            note(f"left identity fails at arrow {x}")
        if g.compose_table[x, es] != x:
            note(f"right identity fails at arrow {x}")
        if g.compose_table[g.inverse_of[x], x] != es:
            note(f"inverse(x).x is not the source unit at arrow {x}")
        if g.compose_table[x, g.inverse_of[x]] != er:
            note(f"x.inverse(x) is not the range unit at arrow {x}")
    for x in range(n):
        for y in np.flatnonzero(g.range_of == g.source_of[x]):
            xy = g.compose_table[x, y]
            if xy == UNDEFINED:
                continue
            for z in np.flatnonzero(g.range_of == g.source_of[y]):
                left = g.compose_table[xy, z]
                right = g.compose_table[x, g.compose_table[y, z]]
                if left != right:
                    note(f"associativity fails on ({x}, {y}, {z})")
    finite = all(np.isfinite(w) for w in g.weights)
    if not finite:
        note("weights must be finite")
    if np.any(g.weights <= 0):
        note("weights must be positive")
    elif finite:
        uw = g.weights[g.unit_arrows]
        for x in range(n):
            expect = uw[g.source_of[x]]
            if abs(g.weights[x] - expect) > 1e-12 * max(1.0, abs(expect)):
                note(
                    f"Haar weight of arrow {x} is {g.weights[x]}, "
                    f"but left invariance needs the source-unit weight {expect}"
                )
    return ValidationReport(tuple(bad))


def act_bisection_oracle(g, a, f, side):
    """Translation by a bisection, one arrow at a time from its definition."""
    out = np.empty(g.n_arrows, dtype=complex)
    for x in range(g.n_arrows):
        if side == "left":
            # (af)(x) = f(x . a(source x))
            out[x] = f[g.compose(x, a.picks[int(g.source_of[x])])]
        else:
            # (fa)(x) = f(b . x) for the arrow b of a with source range(x)
            b = next(p for p in a.picks if g.source_of[p] == g.range_of[x])
            out[x] = f[g.compose(b, x)]
    return out


def pair_table_oracle(n):
    """Composition table of the pair groupoid on n points, entry by entry."""
    table = np.full((n * n, n * n), UNDEFINED, dtype=int)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                table[i * n + j, j * n + k] = i * n + k
    return table


def product_table_oracle(g):
    """Composition table of g times the 2-point pair groupoid, entry by entry."""
    n = g.n_arrows
    table = np.full((4 * n, 4 * n), UNDEFINED, dtype=int)
    for x in range(n):
        for y in range(n):
            xy = g.compose_table[x, y]
            if xy == UNDEFINED:
                continue
            for i in (0, 1):
                for j in (0, 1):
                    for k in (0, 1):
                        table[4 * x + 2 * i + j, 4 * y + 2 * j + k] = 4 * xy + 2 * i + k
    return table


def transformation_table_oracle(table, action):
    """Composition table of the action groupoid, (g, h.p)(h, p) = (gh, p), entry by entry."""
    table, action = np.asarray(table), np.asarray(action)
    k, m = action.shape
    out = np.full((k * m, k * m), UNDEFINED, dtype=int)
    for a in range(k):
        for b in range(k):
            for p in range(m):
                out[a * m + action[b, p], b * m + p] = table[a, b] * m + p
    return out


# ---------------------------------------------------------------------------
# the bisection layer and the duality axioms as loops, point mass by point mass


def module_law_defect_oracle(g, m):
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


def match_unit_bijection_oracle(g, alpha, beta, tol):
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


def multiplicativity_oracle(g, alpha, tol):
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


def support_analysis_oracle(g, alpha, tol=SUPPORT_TOL):
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


def reconstruct_bisection_oracle(g, alpha, beta):
    """The reconstruction with its support checks as loops over units and arrows."""
    report = verify_module_map_pair(g, alpha, beta)
    if not report.ok:
        raise ReconstructionError("; ".join(report.failures) or "pair axioms fail")
    analysis = support_analysis_oracle(g, alpha)
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
    if not is_bisection_oracle(g, picks):
        bad = _first_source_collision_oracle(g, picks)
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


def _first_source_collision_oracle(g, picks):
    seen = {}
    for u, x in enumerate(picks):
        s = int(g.source_of[x])
        if s in seen:
            return u
        seen[s] = u
    return 0


def is_bisection_oracle(g, picks):
    picks = tuple(int(p) for p in picks)
    if len(picks) != g.n_units:
        return False
    for u, x in enumerate(picks):
        if not 0 <= x < g.n_arrows or g.range_of[x] != u:
            return False
    sources = [int(g.source_of[x]) for x in picks]
    return sorted(sources) == list(range(g.n_units))


def bisection_product_oracle(g, a, b):
    """Setwise product: the pick at u is a(u) composed with b at source(a(u))."""
    picks = []
    for u in range(g.n_units):
        x = a.picks[u]
        y = b.picks[int(g.source_of[x])]
        picks.append(g.compose(x, y))
    out = Bisection(tuple(picks))
    assert is_bisection_oracle(g, out.picks)
    return out


def bisection_inverse_oracle(g, a):
    """Inverse arrows of a, reindexed by their ranges."""
    picks = [UNDEFINED] * g.n_units
    for x in a.picks:
        y = int(g.inverse_of[x])
        picks[int(g.range_of[y])] = y
    out = Bisection(tuple(picks))
    assert is_bisection_oracle(g, out.picks)
    return out


def bisection_group_oracle(g, gamma):
    """Identity, inverses, closure and associativity of gamma, product by product."""
    ok = identity_bisection(g) in gamma
    table = set(gamma)
    for a in gamma:
        ok = ok and bisection_inverse_oracle(g, a) in table
        for b in gamma:
            ok = ok and bisection_product_oracle(g, a, b) in table
    for a in gamma:
        for b in gamma:
            for c in gamma:
                left = bisection_product_oracle(g, bisection_product_oracle(g, a, b), c)
                right = bisection_product_oracle(g, a, bisection_product_oracle(g, b, c))
                ok = ok and left == right
    return ok


def reduced_norm_oracle(g, f):
    """The largest block norm of the dense right convolution matrix."""
    return operator_norm(g, right_op(g, f))


def pd_to_section_oracle(g, phi, tol=PSD_TOL):
    """The square-root section from the dense block-diagonal square root."""
    phi = arrow_function(g, phi)
    if np.abs(g.weights - 1.0).max(initial=0.0) > 1e-12:
        raise ValueError("square-root section construction needs all Haar weights equal to 1")
    verdict = is_positive_definite(g, phi, tol)
    if not verdict:
        raise ValueError(
            f"not positive definite: unit {verdict.unit} has form value {verdict.value}"
        )
    op = right_op(g, phi)
    root = np.zeros_like(op)
    for fiber, block in zip(g.r_fibers, unit_blocks(g, op)):
        root[np.ix_(fiber, fiber)] = hermitian_sqrt(block, tol)
    support = np.abs(phi) > 1e-13 * max(1.0, float(np.abs(phi).max(initial=0.0)))
    marked = set(map(int, g.range_of[support])) | set(map(int, g.source_of[support]))
    h = np.zeros(g.n_arrows, dtype=complex)
    for u in marked:
        h[g.unit_arrows[u]] = 1.0
    return root @ h


# ---------------------------------------------------------------------------
# the commutant as a Kronecker null space, and the dense per-generator loops


def right_delta_ops_oracle(g):
    """Right convolution by each point mass a, straight from the composition table:
    w(t) at (x, t) whenever inverse(t) x = a.  Undefined products contribute
    nothing, so a structure that is not a groupoid gets partial translations."""
    ops = [np.zeros((g.n_arrows, g.n_arrows), dtype=complex) for _ in range(g.n_arrows)]
    for x in range(g.n_arrows):
        for t in range(g.n_arrows):
            if g.range_of[t] != g.range_of[x]:
                continue
            a = g.compose_table[g.inverse_of[t], x]
            if a != UNDEFINED:
                ops[a][x, t] = g.weights[t]
    return ops


def commutant_oracle(generators, dim: int, tol: float = RANK_TOL) -> list[np.ndarray]:
    """Basis of {T : TA = AT for every generator A}, by null-space extraction.

    With no generators this is the full matrix space on ``dim`` coordinates.
    """
    gens = [np.asarray(a, dtype=complex) for a in generators]
    if not gens:
        return [m.reshape(dim, dim) for m in np.eye(dim * dim, dtype=complex)]
    eye = np.eye(dim, dtype=complex)
    rows = []
    for a in gens:
        rows.append(np.kron(eye, a) - np.kron(a.T, eye))
    basis = nullspace(np.vstack(rows), tol)
    return [v.reshape(dim, dim) for v in basis]


def vn_commutation_defect_oracle(g, op) -> float:
    """Largest commutator entry of op against the right convolution generators."""
    op = np.asarray(op, dtype=complex)
    worst = 0.0
    for a in right_delta_ops_oracle(g):
        worst = max(worst, float(np.abs(op @ a - a @ op).max(initial=0.0)))
    return worst


def module_map_matrix_oracle(g, op) -> np.ndarray:
    """The matrix of f -> conj(op(f*)) at the units, point mass by point mass."""
    op = np.asarray(op, dtype=complex)
    cols = []
    for x in range(g.n_arrows):
        image = np.conj(op @ star(g, delta(g, x)))
        cols.append(image[g.unit_arrows])
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# the per-unit and per-arrow loops that the stacked unit-block layer replaced


def gram_matrix_oracle(g, phi, u):
    """Gram matrix phi(inverse(x) y) over the range fiber of unit u."""
    phi = arrow_function(g, phi)
    fiber = g.r_fibers[u]
    return phi[g.compose_table[np.ix_(g.inverse_of[fiber], fiber)]]


def _verdict_oracle(g, phi, tol, decide, weighted=False):
    """The per-unit loop of the three criteria, at delta = tol * max(1, max|Gram entry|)."""
    phi = arrow_function(g, phi)
    for u in range(g.n_units):
        m = gram_matrix_oracle(g, phi, u)
        delta = tol * max(1.0, float(np.abs(m).max(initial=0.0)))
        defect = float(np.abs(m - m.conj().T).max(initial=0.0))
        shift = delta
        if weighted:
            m, shift = _integral_kernel_oracle(g, phi, u), delta * g.weights[g.r_fibers[u]] ** 2
        if defect > delta:
            vec = _non_hermitian_witness(m)
        else:
            a = (m + m.conj().T) / 2
            a.flat[:: a.shape[0] + 1] += shift
            vec = decide(a)
        if vec is not None:
            return PdVerdict(False, u, vec, complex(vec.conj() @ m @ vec))
    return PdVerdict(True)


def is_positive_definite_oracle(g, phi, tol=PSD_TOL):
    return _verdict_oracle(g, phi, tol, _lowest_eigenvector_oracle)


def _lowest_eigenvector_oracle(a):
    vals, vecs = np.linalg.eigh(a)
    return vecs[:, 0] if vals[0] < 0 else None


def _negative_direction_oracle(a):
    """Unpivoted LDL^H of one Hermitian matrix; the direction of its first pivot <= 0."""
    n = a.shape[0]
    low = np.eye(n, dtype=a.dtype)
    for k in range(n):
        pivot = a[k, k].real
        if pivot <= 0:
            v = np.zeros(n, dtype=complex)
            v[k] = 1.0
            for j in range(k - 1, -1, -1):
                v[j] = -(low[j + 1 : k + 1, j].conj() @ v[j + 1 : k + 1])
            return v / np.linalg.norm(v)
        low[k + 1 :, k] = a[k + 1 :, k] / pivot
        a[k + 1 :, k + 1 :] -= np.outer(low[k + 1 :, k], a[k, k + 1 :])
    return None


def pd_verdict_pointset_oracle(g, phi, tol=PSD_TOL):
    return _verdict_oracle(g, phi, tol, _negative_direction_oracle)


def pd_verdict_integral_oracle(g, phi, tol=PSD_TOL):
    return _verdict_oracle(g, phi, tol, _negative_direction_oracle, weighted=True)


def _integral_kernel_oracle(g, phi, u):
    w = g.weights[g.r_fibers[u]]
    return (w[:, None] * w[None, :]) * gram_matrix_oracle(g, phi, u).T


def bundle_coefficient_oracle(g, bundle, xi, eta):
    """The arrow function <L_x xi(source x), eta(range x)>, one arrow at a time."""
    for name, sec in (("xi", xi), ("eta", eta)):
        for u, v in enumerate(sec.vectors):
            if v.shape != (bundle.dims[u],):
                raise ValueError(f"{name} has wrong dimension at unit {u}")
    out = np.empty(g.n_arrows, dtype=complex)
    for x in range(g.n_arrows):
        moved = bundle.maps[x] @ xi.vectors[int(g.source_of[x])]
        out[x] = moved.conj() @ eta.vectors[int(g.range_of[x])]
    return out


def gns_bundle_oracle(g, phi, tol=PSD_TOL):
    """GNS bundle and section with one eigh per unit and one map product per arrow."""
    phi = arrow_function(g, phi)
    verdict = is_positive_definite_oracle(g, phi, tol)
    if not verdict:
        raise ValueError(
            f"not positive definite: unit {verdict.unit} has form value {verdict.value}"
        )
    factors = []
    pinvs = []
    for u in range(g.n_units):
        kernel = _integral_kernel_oracle(g, phi, u)
        vals, vecs = hermitian_eigen((kernel + kernel.conj().T) / 2)
        keep = vals > tol * (vals[0] if vals.size and vals[0] > 0 else 1.0)
        root = np.sqrt(vals[keep])
        factors.append(root[:, None] * vecs[:, keep].conj().T)
        pinvs.append(vecs[:, keep] / root[None, :])
    position = np.empty(g.n_arrows, dtype=int)
    for fiber in g.r_fibers:
        position[fiber] = np.arange(fiber.size)
    maps = []
    for x in range(g.n_arrows):
        u, v = int(g.range_of[x]), int(g.source_of[x])
        fiber = g.r_fibers[u]
        back = g.compose_table[g.inverse_of[x], fiber]
        maps.append(factors[u] @ pinvs[v][position[back]])
    vectors = []
    for u, e in enumerate(g.unit_arrows):
        vectors.append(factors[u][:, position[e]] / g.weights[e])
    bundle = GHilbertBundle(dims=tuple(c.shape[0] for c in factors), maps=tuple(maps))
    return bundle, BundleSection(tuple(vectors))


def right_op_blocks_oracle(g, f):
    """unit_blocks(g, right_op(g, f)), one fiber at a time from the composition table."""
    f = arrow_function(g, f)
    blocks = []
    for fiber in g.r_fibers:
        w = g.weights[fiber]
        blocks.append(w[None, :] * f[g.compose_table[np.ix_(g.inverse_of[fiber], fiber)]].T)
    return blocks


def block_norm_oracle(g, blocks):
    best = 0.0
    for t, block in zip(g.r_fibers, blocks):
        rw = np.sqrt(g.weights[t])
        tilted = block * (rw[:, None] / rw[None, :])
        if tilted.size:
            best = max(best, float(np.linalg.norm(tilted, 2)))
    return best


def reduced_norm_loop_oracle(g, f):
    return block_norm_oracle(g, right_op_blocks_oracle(g, f))


def pd_to_section_loop_oracle(g, phi, tol=PSD_TOL):
    """The square-root section with one square root per fiber block."""
    phi = arrow_function(g, phi)
    if np.abs(g.weights - 1.0).max(initial=0.0) > 1e-12:
        raise ValueError("square-root section construction needs all Haar weights equal to 1")
    verdict = is_positive_definite_oracle(g, phi, tol)
    if not verdict:
        raise ValueError(
            f"not positive definite: unit {verdict.unit} has form value {verdict.value}"
        )
    support = np.abs(phi) > 1e-13 * max(1.0, float(np.abs(phi).max(initial=0.0)))
    marked = np.zeros(g.n_units, dtype=bool)
    marked[g.range_of[support]] = marked[g.source_of[support]] = True
    h = np.zeros(g.n_arrows, dtype=complex)
    h[g.unit_arrows[marked]] = 1.0
    xi = np.zeros(g.n_arrows, dtype=complex)
    for fiber, block in zip(g.r_fibers, right_op_blocks_oracle(g, phi)):
        xi[fiber] = hermitian_sqrt(block, tol) @ h[fiber]
    return xi


def d_inner_loop_oracle(g, xi, eta):
    vals = g.weights * np.conj(xi) * eta
    return np.array([vals[t].sum() for t in g.r_fibers])


def section_norm_oracle(g, xi):
    mass = g.weights * np.abs(xi) ** 2
    return float(np.sqrt(max(mass[t].sum() for t in g.r_fibers)))


def adjoint_op_oracle(g, op):
    """Blockwise adjoint in the weighted inner product, one fiber at a time."""
    out = np.zeros_like(op)
    for t in g.r_fibers:
        w = g.weights[t]
        block = op[np.ix_(t, t)]
        out[np.ix_(t, t)] = (block.conj().T * w[None, :]) / w[:, None]
    return out


def i_norm_range_oracle(g, f):
    return max(float(np.sum(g.weights[t] * np.abs(f[t]))) for t in g.r_fibers)


def i_norm_source_oracle(g, f):
    inv_w = g.weights[g.inverse_of]
    s_fibers = [np.flatnonzero(g.source_of == u) for u in range(g.n_units)]
    return max(float(np.sum(inv_w[t] * np.abs(f[t]))) for t in s_fibers)


def stieltjes_seeds_oracle(g, phi):
    """The SDP's candidate witnesses and sup-norm lower bound, one unit at a time."""
    seeds = []
    keys = [z for z in range(g.n_arrows) if z <= g.inverse_of[z]]
    if is_positive_definite_oracle(g, phi):
        seeds.append({(name, c): complex(phi[c]) for name in ("r", "t") for c in keys})
    sigma = 0.0
    for u in range(g.n_units):
        block = gram_matrix_oracle(g, phi, u)
        if block.size:
            sigma = max(sigma, float(np.linalg.norm(block, 2)))
    diag_seed = {(name, c): 0.0 for name in ("r", "t") for c in keys}
    for e in map(int, g.unit_arrows):
        diag_seed[("r", e)] = sigma
        diag_seed[("t", e)] = sigma
    seeds.append(diag_seed)
    return seeds, float(np.abs(phi).max(initial=0.0))


# ---------------------------------------------------------------------------
# the entry-by-entry SDP builder the array declarations replaced


class EntrySdp:
    """Block problem builder.

    Entries are declared once per oriented position; the Hermitian mirror is
    implied.  Variables are named by arbitrary hashable keys; declaring an
    entry with ``conj=True`` stores the conjugate of the variable there.
    """

    def __init__(self):
        self.block_sizes: list[int] = []
        self._fixed: list[tuple[int, int, int, complex]] = []
        self._var_occ: dict[object, list[tuple[int, int, int, bool]]] = {}
        self._objective: list[object] = []

    def add_block(self, size: int) -> int:
        self.block_sizes.append(int(size))
        return len(self.block_sizes) - 1

    def entry_fixed(self, block: int, i: int, j: int, value: complex) -> None:
        self._fixed.append((block, i, j, complex(value)))

    def entry_var(self, block: int, i: int, j: int, key, conj: bool = False) -> None:
        self._var_occ.setdefault(key, []).append((block, i, j, conj))

    def objective_var(self, key) -> None:
        if key not in self._objective:
            self._objective.append(key)

    def blocks_for(self, values: dict) -> list[np.ndarray]:
        """Dense Hermitian blocks for a full variable assignment."""
        mats = [np.zeros((s, s), dtype=complex) for s in self.block_sizes]
        for b, i, j, v in self._fixed:
            mats[b][i, j] = v
            mats[b][j, i] = np.conj(v)
        for key, occs in self._var_occ.items():
            v = complex(values[key])
            for b, i, j, conj in occs:
                z = np.conj(v) if conj else v
                mats[b][i, j] = z
                mats[b][j, i] = np.conj(z)
        return mats


def stieltjes_problem_oracle(g, phi) -> EntrySdp:
    """The coefficient-norm completion problem, one entry at a time: block u
    holds rho, phi and tau on the Gram block of the range fiber of u, with
    variables ("r", c) and ("t", c) for the smaller id c of {z, inverse(z)}."""
    phi = arrow_function(g, phi)
    p = EntrySdp()
    for u in range(g.n_units):
        fiber = np.flatnonzero(g.range_of == u)
        m = fiber.size
        b = p.add_block(2 * m)
        for pi in range(m):
            for qi in range(m):
                z = int(g.compose_table[g.inverse_of[fiber[pi]], fiber[qi]])
                p.entry_fixed(b, pi, qi + m, phi[z])
                if pi <= qi:
                    zi = int(g.inverse_of[z])
                    c, conj = (z, False) if z <= zi else (zi, True)
                    for name, off in (("r", 0), ("t", m)):
                        p.entry_var(b, pi + off, qi + off, (name, c), conj=conj)
                        if zi == z and pi < qi:
                            # a self-inverse arrow's value is real: tie both orientations
                            p.entry_var(b, qi + off, pi + off, (name, c), conj=conj)
    for e in map(int, g.unit_arrows):
        p.objective_var(("r", e))
        p.objective_var(("t", e))
    return p


def schur_problem_oracle(a) -> EntrySdp:
    """min t with [[P, a], [a*, Q]] PSD and every diagonal entry of P, Q <= t,
    with variables ("p", i, j) and ("q", i, j) for i <= j."""
    n = a.shape[0]
    p = EntrySdp()
    b = p.add_block(2 * n)
    for i in range(n):
        for j in range(n):
            p.entry_fixed(b, i, j + n, a[i, j])
            if i <= j:
                p.entry_var(b, i, j, ("p", i, j))
                p.entry_var(b, i + n, j + n, ("q", i, j))
    for i in range(n):
        p.objective_var(("p", i, i))
        p.objective_var(("q", i, i))
    return p


# ---------------------------------------------------------------------------
# brute-force factorization search (the coefficient-norm oracle)


def brute_force_factorization_norm(
    g: FiniteGroupoid, phi, budget: int = 40, seed: int = 0
) -> float:
    """Best single-coefficient cost ||xi|| ||eta|| with (xi, eta) reproducing phi.

    Multi-start local search (alternating linear solves, then a constrained
    polish); a test oracle for tiny groupoids, never a production norm.
    Returns inf when no start reproduces phi within the budget.
    """
    phi = arrow_function(g, phi)
    n = g.n_arrows
    if n > 6:
        raise ValueError("oracle is restricted to groupoids with at most 6 arrows")
    if budget <= 0 or not np.any(phi):
        return 0.0 if not np.any(phi) else np.inf
    rng = np.random.default_rng(seed)
    scale = float(np.abs(phi).max(initial=1.0))
    best = np.inf
    for _ in range(budget):
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi, eta, resid = _alternating_fit(g, phi, xi, eta)
        if resid > 1e-9 * scale:
            continue
        val = _polish_factorization(g, phi, xi, eta)
        best = min(best, val)
    return best


def _alternating_fit(g, phi, xi, eta, iters: int = 80):
    resid = np.inf
    for _ in range(iters):
        # (xi, eta) is linear in eta through right_op(xi*) and in conj(xi)
        # through left_op(eta) with its columns reindexed by inversion
        eta = np.linalg.lstsq(right_op(g, star(g, xi)), phi, rcond=None)[0]
        chi = np.linalg.lstsq(left_op(g, eta)[:, g.inverse_of], phi, rcond=None)[0]
        xi = np.conj(chi)
        resid = float(np.abs(regular_coefficient(g, xi, eta) - phi).max(initial=0.0))
        if resid < 1e-13 * max(1.0, float(np.abs(phi).max(initial=0.0))):
            break
    return xi, eta, resid


def _polish_factorization(g, phi, xi, eta) -> float:
    n = g.n_arrows
    bal = np.sqrt(section_norm(g, eta) / max(section_norm(g, xi), 1e-12))
    xi, eta = xi * bal, eta / bal

    def unpack(z):
        x = z[:n] + 1j * z[n : 2 * n]
        e = z[2 * n : 3 * n] + 1j * z[3 * n : 4 * n]
        return x, e, z[4 * n], z[4 * n + 1]

    def objective(z):
        return z[4 * n] * z[4 * n + 1]

    def eq_constraints(z):
        x, e, _, _ = unpack(z)
        d = regular_coefficient(g, x, e) - phi
        return np.concatenate([d.real, d.imag])

    def ineq_constraints(z):
        x, e, t1, t2 = unpack(z)
        w = g.weights
        rows = []
        for t in g.r_fibers:
            rows.append(t1 - float(np.sum(w[t] * np.abs(x[t]) ** 2)))
            rows.append(t2 - float(np.sum(w[t] * np.abs(e[t]) ** 2)))
        return np.array(rows)

    z0 = np.concatenate(
        [xi.real, xi.imag, eta.real, eta.imag,
         [section_norm(g, xi) ** 2 * (1 + 1e-9), section_norm(g, eta) ** 2 * (1 + 1e-9)]]
    )
    res = minimize(
        objective,
        z0,
        method="SLSQP",
        constraints=[
            {"type": "eq", "fun": eq_constraints},
            {"type": "ineq", "fun": ineq_constraints},
        ],
        options={"maxiter": 300, "ftol": 1e-14},
    )
    fallback = section_norm(g, xi) * section_norm(g, eta)
    if not res.success:
        return fallback
    x, e, t1, t2 = unpack(res.x)
    resid = float(np.abs(regular_coefficient(g, x, e) - phi).max(initial=0.0))
    if resid > 1e-8 * max(1.0, float(np.abs(phi).max(initial=0.0))):
        return fallback
    return min(fallback, section_norm(g, x) * section_norm(g, e))
