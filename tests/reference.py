"""Independent reference computations used as test oracles.

Everything here works straight from the composition table by exhaustive
summation or search, deliberately avoiding the fiber-indexed code paths of
the package.  Later sections keep the earlier loop versions of the
bisection layer, the duality axioms and two block computations, and the
Kronecker null-space commutant with the dense per-generator loops of the
regular representation, the interior-point method with the padded problem
declarations it solves (the oracle of the coefficient norm and of both its
certificates), and the entry-by-entry SDP builder of those declarations.
Then comes the brute-force factorization search that the coefficient-norm
tests compare against (with the interior-point method's LU factorization,
the only users of scipy), the coefficient norm as solved before its closed form
on one-unit orbits and before its polar completion, with Eymard's norm from
explicit irreps, and last the two-term decomposition through the doubled
groupoid that the square-root split of each orbit block replaced.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
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
    product_with_pair_groupoid,
)
from gfourier.numerics import RANK_TOL, nullspace
from gfourier.positivity import (
    PSD_TOL,
    BundleSection,
    GHilbertBundle,
    PdVerdict,
    _non_hermitian_witness,
    is_positive_definite,
    off_diagonal_embed,
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


def associativity_failures_oracle(g):
    """The triples (x, y, z), ascending, with xy defined, y and z composable
    and (xy)z != x(yz), where x(yz) is undefined when yz is."""
    out = []
    for x in range(g.n_arrows):
        for y in np.flatnonzero(g.range_of == g.source_of[x]):
            xy = g.compose_table[x, y]
            if xy == UNDEFINED:
                continue
            for z in np.flatnonzero(g.range_of == g.source_of[y]):
                left = g.compose_table[xy, z]
                yz = g.compose_table[y, z]
                # x(yz) is undefined when yz is
                right = UNDEFINED if yz == UNDEFINED else g.compose_table[x, yz]
                if left != right:
                    out.append((x, int(y), int(z)))
    return out


def validate_oracle(g, max_report=50):
    """The axiom check as a plain loop over arrows, pairs and triples."""
    bad: list[str] = []

    def note(msg):
        if len(bad) < max_report:
            bad.append(msg)

    n, n_units = g.n_arrows, g.n_units
    # the shapes, the ids and the products of the pairs that should compose
    # come first; a stage that fails ends the report
    for name, shape in (("source_of", (n,)), ("inverse_of", (n,)), ("compose_table", (n, n)),
                        ("weights", (n,))):
        if np.shape(getattr(g, name)) != shape:
            note(f"{name} has shape {np.shape(getattr(g, name))}, expected {shape}")
    if bad:
        return ValidationReport(tuple(bad))
    for x in range(n):
        if not 0 <= g.range_of[x] < n_units:
            note(f"arrow {x} has range {g.range_of[x]}, which is not a unit")
        if not 0 <= g.source_of[x] < n_units:
            note(f"arrow {x} has source {g.source_of[x]}, which is not a unit")
        if not 0 <= g.inverse_of[x] < n:
            note(f"arrow {x} has inverse {g.inverse_of[x]}, which is not an arrow")
    for u, e in enumerate(g.unit_arrows):
        if not 0 <= e < n:
            note(f"unit {u} has unit arrow {e}, which is not an arrow")
    if bad:
        return ValidationReport(tuple(bad))
    for x in range(n):
        for y in range(n):
            if g.source_of[x] == g.range_of[y] and not UNDEFINED <= g.compose_table[x, y] < n:
                note(f"product of ({x}, {y}) is {g.compose_table[x, y]}, which is not an arrow")
    if bad:
        return ValidationReport(tuple(bad))
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
    for x, y, z in associativity_failures_oracle(g):
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
        root[np.ix_(fiber, fiber)] = _psd_root_oracle(block, tol)
    support = np.abs(phi) > 1e-13 * max(1.0, float(np.abs(phi).max(initial=0.0)))
    marked = set(map(int, g.range_of[support])) | set(map(int, g.source_of[support]))
    h = np.zeros(g.n_arrows, dtype=complex)
    for u in marked:
        h[g.unit_arrows[u]] = 1.0
    return root @ h


# ---------------------------------------------------------------------------
# the commutant as a Kronecker null space, and the dense per-generator loops


def _psd_root_oracle(m, tol):
    """The PSD square root of the Hermitian part of m by one ``eigh``;
    eigenvalues in [-tol * scale, 0) are clamped to 0, with scale the largest
    eigenvalue modulus, and a lower one raises."""
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    if vals.size and vals[0] < -tol * np.abs(vals).max():
        raise ValueError(f"matrix is not positive semidefinite (eigenvalue {vals[0]:.3e})")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


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


def left_delta_ops_oracle(g):
    """Left convolution by each point mass a, straight from the composition table:
    w(a) at (a y, y) for every arrow y with range source(a).  Undefined products
    contribute nothing."""
    ops = [np.zeros((g.n_arrows, g.n_arrows), dtype=complex) for _ in range(g.n_arrows)]
    for a in range(g.n_arrows):
        for y in range(g.n_arrows):
            if g.range_of[y] != g.source_of[a]:
                continue
            x = g.compose_table[a, y]
            if x != UNDEFINED:
                ops[a][x, y] = g.weights[a]
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
    """The per-unit loop of the three criteria, at delta = tol * max|Gram entry|;
    a unit whose Gram matrix is zero passes."""
    phi = arrow_function(g, phi)
    for u in range(g.n_units):
        m = gram_matrix_oracle(g, phi, u)
        if not m.any():
            continue
        delta = tol * float(np.abs(m).max())
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
        vals, vecs = np.linalg.eigh((kernel + kernel.conj().T) / 2)
        vals, vecs = vals[::-1], vecs[:, ::-1]
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


def isotropy_elements_oracle(g):
    """The base of every unit and the isotropy element h = inverse(a_t) x a_s
    of every arrow x from s to t, one arrow at a time from the composition
    table.  The base b of a unit is the smallest source of the arrows into it
    (weights must be left invariant), and a_v is the first arrow from b into v
    (the unit arrow on v = b)."""
    if not np.array_equal(g.weights, g.unit_weights[g.source_of]):
        raise ValueError("needs left-invariant weights")
    base = [int(g.source_of[fiber].min()) for fiber in g.r_fibers]
    transport = [int(g.unit_arrows[v]) if base[v] == v
                 else int(next(a for a in g.r_fibers[v] if g.source_of[a] == base[v]))
                 for v in range(g.n_units)]
    elements = []
    for x in range(g.n_arrows):
        s, t = int(g.source_of[x]), int(g.range_of[x])
        elements.append(int(g.compose_table[g.inverse_of[transport[t]], g.compose_table[x, transport[s]]]))
    return base, elements


def translation_maps_oracle(g):
    """The map of every arrow x on an orbit of full rank, one arrow at a time
    from the composition table: the 0/1 matrix ``np.eye(m)[back]`` of the
    translation T_h of the base fiber by the element h of x
    (``isotropy_elements_oracle``), where back[p] is the place of
    inverse(h) y_p, for y_p the p-th arrow into the base."""
    base, elements = isotropy_elements_oracle(g)
    maps = []
    for x, h in enumerate(elements):
        fiber = g.r_fibers[base[g.range_of[x]]].tolist()
        back = [fiber.index(g.compose_table[g.inverse_of[h], y]) for y in fiber]
        maps.append(np.eye(len(fiber))[back])
    return maps


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
        xi[fiber] = _psd_root_oracle(block, tol) @ h[fiber]
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
    """The SDP's candidate witnesses before the polar completion, and the
    sup-norm lower bound, one unit at a time."""
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


def polar_seed_oracle(g, phi):
    """The balanced polar completion, one orbit at a time, as a dict of
    values at ("r", c) and ("t", c) for the smaller id c of {z, inverse(z)};
    and sigma, the largest spectral norm of a Gram block, the diagonal value
    of the spectral seed it replaced.

    At the smallest unit of each orbit, with the SVD Phi = U S V^H of its
    Gram block, rho = c U S U^H and tau = V S V^H / c with c^2 =
    max diag V S V^H / max diag U S U^H (c = 1 when Phi = 0)."""
    phi = arrow_function(g, phi)
    seed, sigma = {}, 0.0
    for u in range(g.n_units):
        fiber = np.flatnonzero(g.range_of == u)
        block = gram_matrix_oracle(g, phi, u)
        sigma = max(sigma, float(np.linalg.norm(block, 2)))
        if g.source_of[fiber].min() < u:  # not the smallest unit of its orbit
            continue
        left, s, right = np.linalg.svd(block)
        rho = left @ np.diag(s) @ left.conj().T
        tau = right.conj().T @ np.diag(s) @ right
        high_rho, high_tau = rho.diagonal().real.max(), tau.diagonal().real.max()
        c = np.sqrt(high_tau / high_rho) if high_rho > 0 and high_tau > 0 else 1.0
        for p, x in enumerate(fiber):
            for q, y in enumerate(fiber):
                z = int(g.compose_table[g.inverse_of[x], y])
                zi = int(g.inverse_of[z])
                for name, part in (("r", c * rho), ("t", tau / c)):
                    seed[name, min(z, zi)] = part[p, q] if z <= zi else np.conj(part[p, q])
    return seed, sigma


def term_cost_oracle(g, terms):
    """sum over the terms (f, h) of section_norm(f) section_norm(h), one term at a time."""
    return float(sum(section_norm(g, f) * section_norm(g, h) for f, h in terms))


def terms_sum_oracle(g, terms):
    """sum over the terms (f, h) of regular_coefficient(f, h), one term at a time."""
    total = np.zeros(g.n_arrows, dtype=complex)
    for f, h in terms:
        total += regular_coefficient(g, f, h)
    return total


# ---------------------------------------------------------------------------
# the interior-point method that solved the coefficient-norm SDP before the
# diagonal scaling closed its stalls: a primal-dual method on a padded
# problem declaration, with Mehrotra's predictor-corrector steps and the HKM
# direction, from the strictly feasible t = 1 - lambda_min(F0); every
# solve returns a value backed by PSD blocks and a dual lower bound made
# exactly dual feasible, so it is the oracle the package's values and both
# of its certificates are checked against.


def _herm_oracle(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


_REL_GAP = 1e-7
_MAX_ITER = 100
_STEP_FRACTION = 0.95


def _id_mask(ids: np.ndarray, size: int) -> np.ndarray:
    """True at ``ids`` among ``size`` variable ids, plus a last False slot
    that the id -1 of a variable-free position reads."""
    mask = np.zeros(size + 1, dtype=bool)
    mask[ids] = True
    return mask


@dataclass(frozen=True)
class DiagBoundSdp:
    """A block problem in padded (blocks, s, s) stacks: the fixed Hermitian
    entries ``data``, zero outside the blocks, the integer id of the variable
    at each position (``var``, -1 where there is none) and whether the
    position holds the variable's conjugate (``conj``).  Block b fills the
    top left ``sizes[b]`` square of its slot.  A variable's mirror position
    holds the same id; one held the same way at an off-diagonal position and
    at its mirror is real, and diagonal positions read the real part.  Every
    diagonal position of a block holds one of the ``objective`` variables,
    whose common bound is minimized."""

    data: np.ndarray
    var: np.ndarray
    conj: np.ndarray
    sizes: np.ndarray
    objective: np.ndarray

    @property
    def n_vars(self) -> int:
        return int(self.var.max()) + 1

    def blocks_for(self, values: np.ndarray, t: float | None = None) -> np.ndarray:
        """The padded block stack for a variable assignment indexed by id,
        with the objective variables pinned to ``t`` when it is given."""
        values = np.array(values, dtype=complex)
        if t is not None:
            values[self.objective] = t
        held = np.where(self.var >= 0, values[self.var], 0.0)
        held = np.where(self.conj, held.conj(), held)
        return self.data + (held + _herm_oracle(held)) / 2

    def min_eigenvalue(self, values: np.ndarray, t: float | None = None) -> float:
        blocks = self.blocks_for(values, t)
        return min(float(np.linalg.eigvalsh(blocks[self.sizes == k, :k, :k])[:, 0].min())
                   for k in np.bincount(self.sizes).nonzero()[0] if k)

    def data_scale(self) -> float:
        return float(np.abs(self.data).max(initial=0.0))


@dataclass
class OracleSolution:
    """``value`` is backed by the PSD blocks of ``variables`` (indexed by
    variable id); ``lower`` is the larger of the caller's sound lower bound
    and -<F0, Z> for the solve's dual stack.  ``dual`` is that stack, or the
    caller's certificate of its bound when the solve certified no more (in
    the problem's padded layout, zero outside the blocks; None when neither
    exists)."""

    value: float
    variables: np.ndarray
    status: str
    probes: int = 0
    iterations: int = 0
    lower: float = -np.inf
    dual: np.ndarray | None = None


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[:, 0].min(initial=np.inf))


def _step(inv_factor: np.ndarray, direction: np.ndarray, fraction: float) -> float:
    """min(1, fraction * the largest alpha keeping L L* + alpha D PSD)."""
    low = _min_eig(inv_factor @ direction @ _herm_oracle(inv_factor))
    return 1.0 if low >= -fraction else -fraction / low


class _Lmi:
    """The real parametrisation F(w) = F0 + sum_k w_k A_k of a DiagBoundSdp.

    Coordinates are the real and imaginary parts of the free variables (parts
    that vanish identically are dropped) and t, last.  Each A_k is a list of
    (position, coefficient) entries, grouped by block.  Every block is padded
    to the stack's size s with t on the padded diagonal, which adds only
    t >= 0, already implied because the objective entries are diagonal
    entries of PSD blocks; so t's matrix is the identity.
    """

    def __init__(self, problem: DiagBoundSdp, scale: float):
        self.problem = problem
        self.shape = blocks, s, _ = problem.data.shape
        # F0 / scale, real and imaginary parts apart: a complex division by a
        # subnormal scale overflows
        parts = np.ascontiguousarray(problem.data, dtype=complex).view(float)
        self.f0 = (parts / scale).view(complex)
        n = problem.n_vars
        var = problem.var.copy()
        edge = np.arange(s) >= problem.sizes[:, None]
        pad_block, pad = edge.nonzero()
        var[pad_block, pad, pad] = problem.objective[0]  # t on the padded diagonal
        block, row, col = (var >= 0).nonzero()
        key, cj = var[block, row, col], problem.conj[block, row, col]
        objective = _id_mask(problem.objective, n)[key]
        tied = (row != col) & (cj == problem.conj[block, col, row])
        imag = ((row != col) & ~_id_mask(key[tied], n)[key] & ~objective).nonzero()[0]
        # every position takes the real part of its variable (id k) or t (id
        # 2n); a position of a complex variable also takes its imaginary part
        # (id n + k); the ids that occur are numbered in order, t last
        raw = np.concatenate([np.where(objective, 2 * n, key), n + key[imag]])
        used = _id_mask(raw, 2 * n + 1)
        self.coords = used[:2 * n].nonzero()[0]
        self.m = self.coords.size + 1
        entry = np.concatenate([np.arange(key.size), imag])
        e_var = (np.cumsum(used) - 1)[raw]
        e_coef = np.concatenate([np.ones(key.size), np.where(cj[imag], -1j, 1j)])
        # entries grouped by block, each block's coordinates, and each entry's
        # index among them, for the Newton matrix
        order = np.argsort(block[entry], kind="stable")
        block, row, col = (a[entry[order]] for a in (block, row, col))
        self.e_var, self.e_coef = e_var[order], e_coef[order]
        pair = block * self.m + self.e_var
        used = _id_mask(pair, blocks * self.m)
        before = np.cumsum(used) - used
        self.coord_bounds = before[np.arange(blocks + 1) * self.m]
        self.block_coords = used.nonzero()[0] % self.m
        self.local = before[pair] - self.coord_bounds[block]
        self.entry_bounds = np.searchsorted(block, np.arange(blocks + 1))
        self.row, self.col = row, col
        self.e_flat = (block * s + row) * s + col
        self.e_tflat = (block * s + col) * s + row
        self.norm2 = np.bincount(self.e_var, np.abs(self.e_coef) ** 2, minlength=self.m)
        self.padding = edge[:, :, None] | edge[:, None, :]

    def scatter(self, w: np.ndarray) -> np.ndarray:
        """sum_k w_k A_k."""
        vals, size = self.e_coef * w[self.e_var], self.f0.size
        flat = np.bincount(self.e_flat, vals.real, size)
        return (flat + 1j * np.bincount(self.e_flat, vals.imag, size)).reshape(self.shape)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """(Re <A_k, Y>)_k."""
        return np.bincount(self.e_var, (self.e_coef * y.ravel()[self.e_tflat]).real, self.m)

    def slack(self, w: np.ndarray) -> np.ndarray:
        return self.f0 + self.scatter(w)

    def newton_matrix(self, z: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """M_ij = Re tr(A_i Z A_j S^-1), assembled one block at a time from
        the block's dense A_j and U_j = Z A_j S^-1, read at A_i's entries."""
        m = np.zeros((self.m, self.m))
        for b in range(self.shape[0]):
            e = slice(*self.entry_bounds[b:b + 2])
            coords = self.block_coords[slice(*self.coord_bounds[b:b + 2])]
            local, p, q, c = self.local[e], self.row[e], self.col[e], self.e_coef[e]
            n = coords.size
            a = np.zeros((n, *self.shape[1:]), dtype=complex)
            a[local, p, q] = c
            u = (z[b] @ a @ s_inv[b])[:, q, p] * c
            into = (np.arange(n)[:, None] * n + local).ravel()
            m[coords[:, None], coords] += np.bincount(into, u.real.ravel(), n * n).reshape(n, n)
        return m

    def certify(self, z: np.ndarray) -> tuple[float, np.ndarray | None]:
        """The dual bound -<F0, Z> of Z made exactly dual feasible, and that
        Z with its padding removed."""
        coeffs = self.adjoint(z) / self.norm2
        coeffs[-1] = 0.0
        z = z - self.scatter(coeffs)
        low = _min_eig(z)
        if low < 0:  # lift a rounding margin past zero, then demand PSD
            z = z + (1e-14 * float(np.abs(z).max()) - low) * np.eye(self.shape[1])
            if _min_eig(z) < 0:
                return -np.inf, None
        z = np.where(self.padding, 0.0, z)
        z = z / self.adjoint(z)[-1]
        return -float(np.vdot(z, self.f0).real), z

    def values(self, w: np.ndarray) -> np.ndarray:
        n = self.problem.n_vars
        parts = np.zeros(2 * n)
        parts[self.coords] = w[:-1]
        out = parts[:n] + 1j * parts[n:]
        out[self.problem.objective] = w[-1]
        return out


def _interior_point(lmi: _Lmi, lower: float) -> OracleSolution:
    """The solve on data of largest modulus 1 from the sound bound ``lower``;
    the solution's ``lower`` is the final dual iterate's bound alone."""
    target = lower + _REL_GAP * abs(lower)
    w = np.zeros(lmi.m)
    w[-1] = max(0.0, -_min_eig(lmi.f0)) + 1.0  # S = F0 + t I is positive definite
    s = lmi.slack(w)
    z = np.linalg.inv(s)
    z = z / lmi.adjoint(z)[-1]
    c = np.eye(lmi.m)[-1]
    witness, status, steps = w, "max_iter", 0
    for steps in range(_MAX_ITER + 1):
        try:
            s_fac, z_fac = (np.linalg.inv(np.linalg.cholesky(a)) for a in (s, z))
        except np.linalg.LinAlgError:
            status = "stalled"
            break
        witness, t = w, float(w[-1])
        if t <= target:
            status = "optimal"
            break
        gap = float(np.vdot(z, s).real)
        if gap <= _REL_GAP * abs(t) and t - lmi.certify(z)[0] <= max(_REL_GAP * abs(t), 1e-12):
            status = "optimal"
            break
        if steps == _MAX_ITER:
            break
        s_inv = _herm_oracle(s_fac) @ s_fac
        rp = c - lmi.adjoint(z)
        newton = lu_factor(lmi.newton_matrix(z, s_inv))

        def direction(h):
            """HKM step: dw from the Newton matrix, dZ = sym(H - Z dS S^-1)."""
            dw = lu_solve(newton, lmi.adjoint(h) - rp)
            ds = lmi.scatter(dw)
            dz = h - z @ ds @ s_inv
            return dw, ds, (dz + _herm_oracle(dz)) / 2

        # Mehrotra: an affine predictor sets the centring, a corrector steps
        mu = gap / (lmi.shape[0] * lmi.shape[1])
        dw, ds, dz = direction(-z)
        ap, ad = _step(z_fac, dz, 1.0), _step(s_fac, ds, 1.0)
        sigma = min(1.0, max(0.0, np.vdot(z + ap * dz, s + ad * ds).real / gap) ** 3)
        dw, ds, dz = direction(sigma * mu * s_inv - z - dz @ ds @ s_inv)
        ap, ad = _step(z_fac, dz, _STEP_FRACTION), _step(s_fac, ds, _STEP_FRACTION)
        z = z + ap * dz
        w = w + ad * dw
        s = lmi.slack(w)
    bound, dual = lmi.certify(z)
    return OracleSolution(float(witness[-1]), lmi.values(witness), status, 1, steps, bound, dual)


def interior_point_oracle(
    problem: DiagBoundSdp, lower: float = 0.0, seeds: tuple[np.ndarray, ...] = (),
    dual: np.ndarray | None = None,
) -> OracleSolution:
    """Minimize the common bound t on the objective entries subject to PSD blocks.

    ``lower`` must be a sound lower bound for the optimum (0 always works:
    the objective entries are diagonal); the solve stops as soon as its
    value comes within a relative 1e-7 of it.  ``dual``, when given, is a
    dual stack that certifies ``lower``; the solution carries it unless the
    solve certifies more.  ``seeds`` are candidate
    variable assignments indexed by id; the best one that verifies as
    feasible within that gap of ``lower`` is returned without a solve.
    Otherwise the interior-point method runs for at most 100 Newton steps,
    until the value and its certified dual bound are within the gap.  The
    returned value is always backed by a witness whose blocks are PSD: the
    objective holds every diagonal entry, so the method starts feasible and
    stays so.
    """
    scale = problem.data_scale()
    target = lower + _REL_GAP * abs(lower)
    best = None
    for seed in seeds:
        t_seed = max(lower, float(np.abs(seed[problem.objective].real).max()))
        if t_seed <= target and (best is None or t_seed < best[0]) \
                and problem.min_eigenvalue(seed, t=t_seed) >= -1e-10 * scale:
            best = (t_seed, seed)
    if best is not None:
        values = np.array(best[1], dtype=complex)
        values[problem.objective] = best[0]
        return OracleSolution(best[0], values, "seeded", lower=lower, dual=dual)
    if scale == 0.0:  # no data: the zero assignment is feasible at t = 0
        return OracleSolution(0.0, np.zeros(problem.n_vars, dtype=complex), "optimal", lower=0.0)
    solution = _interior_point(_Lmi(problem, scale), lower / scale)
    bound = solution.lower * scale
    solution.value *= scale
    solution.variables *= scale
    solution.lower = max(lower, bound)
    if dual is not None and bound <= lower:  # the solve certified no more
        solution.dual = dual
    return solution


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


def stieltjes_problem_oracle(g, phi, units=None) -> EntrySdp:
    """The coefficient-norm completion problem, one entry at a time: a block
    per unit u, or per unit of ``units`` in their order, holds rho, phi and
    tau on the Gram block of the range fiber of u, with variables ("r", c)
    and ("t", c) for the smaller id c of {z, inverse(z)}."""
    phi = arrow_function(g, phi)
    p = EntrySdp()
    for u in range(g.n_units) if units is None else units:
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


def orbit_bases_oracle(g) -> list[int]:
    """The orbit bases: the smallest source of the arrows into each unit,
    grouped by the size of their range fibers, the sizes in the order of their
    first units, and ascending within one size.  Like the orbit index, it
    assumes a Haar system: weights that depend on the source unit alone."""
    units = {int(g.source_of[g.range_of == u].min()) for u in range(g.n_units)}
    size = np.bincount(g.range_of, minlength=g.n_units)
    first = {}
    for u in range(g.n_units):
        first.setdefault(size[u], u)
    return sorted(units, key=lambda u: (first[size[u]], u))


def _padded_oracle(entry: EntrySdp, key_id) -> DiagBoundSdp:
    """``entry`` as one padded stack, the variable of each key at the id
    ``key_id(key)``.  A position declared once holds its variable, and its
    mirror the conjugate; a variable declared the same way at both holds it
    the same way at both, which makes it real."""
    sizes = np.array(entry.block_sizes)
    s = int(sizes.max())
    data = np.zeros((sizes.size, s, s), dtype=complex)
    var = np.full(data.shape, -1)
    conj = np.zeros(data.shape, dtype=bool)
    for b, i, j, v in entry._fixed:
        data[b, i, j], data[b, j, i] = v, np.conj(v)
    occurrences = [(key_id(key), b, i, j, cj) for key, occs in entry._var_occ.items() for b, i, j, cj in occs]
    for k, b, i, j, cj in occurrences:  # the mirrors first, so that a declared position wins
        var[b, j, i], conj[b, j, i] = k, not cj if i != j else cj
    for k, b, i, j, cj in occurrences:
        var[b, i, j], conj[b, i, j] = k, cj
    objective = np.array(sorted(key_id(key) for key in entry._objective))
    return DiagBoundSdp(data, var, conj, sizes, objective)


def tied_problem_oracle(g, phi) -> DiagBoundSdp:
    """The completion problem whose blocks share rho and tau, as the package
    declared it before its untied Schur blocks: the blocks of
    ``stieltjes_problem_oracle`` at the orbit bases, in the order of
    ``orbit_bases_oracle``, padded to the largest, with ("r", c) at the
    variable id c and ("t", c) at c + n_arrows; a self-inverse arrow,
    declared at both orientations, is real."""
    entry = stieltjes_problem_oracle(g, phi, orbit_bases_oracle(g))
    return _padded_oracle(entry, lambda key: key[1] + (g.n_arrows if key[0] == "t" else 0))


def _base_ids_oracle(g) -> list[np.ndarray]:
    """The Gram ids inverse(x) y over the range fiber of each orbit base."""
    fibers = [np.flatnonzero(g.range_of == u) for u in orbit_bases_oracle(g)]
    return [g.compose_table[np.ix_(g.inverse_of[f], f)] for f in fibers]


def untied_problem_oracle(g, phi) -> DiagBoundSdp:
    """The completion problem with one untied block per orbit base: the
    block of ``schur_problem_oracle`` of each base's Gram block, in the
    order of ``orbit_bases_oracle``, padded to the largest.  With every
    base's m x m positions numbered in turn, ("p", i, j) of a base is at
    the id of its position (i, j), and ("q", i, j) there plus the number of
    positions of every base."""
    phi = arrow_function(g, phi)
    ids = _base_ids_oracle(g)
    starts = np.cumsum([0] + [x.size for x in ids])
    entry = EntrySdp()
    for b, x in enumerate(ids):
        part = schur_problem_oracle(phi[x])
        entry.add_block(part.block_sizes[0])
        entry._fixed += [(b, i, j, v) for _, i, j, v in part._fixed]
        for key, occs in part._var_occ.items():
            entry._var_occ[(b, *key)] = [(b, i, j, cj) for _, i, j, cj in occs]
        entry._objective += [(b, *key) for key in part._objective]

    def key_id(key):
        b, name, i, j = key
        return int(starts[b] + i * len(ids[b]) + j + (starts[-1] if name == "q" else 0))
    return _padded_oracle(entry, key_id)


def schur_untied_oracle(a, real: bool = False) -> DiagBoundSdp:
    """``schur_problem_oracle`` of the n x n matrix a as one padded block,
    ("p", i, j) at the variable id i n + j and ("q", i, j) at n^2 + i n + j:
    the untied problem of the pair groupoid's one orbit base, whose arrow
    (i, j) has the id i n + j.  With ``real`` every variable is declared the
    same way at its mirror, so it is real: for real a that problem has the
    same optimum (the real part of a PSD completion is one) with half the
    coordinates."""
    n = len(a)
    entry = schur_problem_oracle(a)
    if real:
        for occurrences in entry._var_occ.values():
            occurrences += [(b, j, i, cj) for b, i, j, cj in occurrences if i != j]
    return _padded_oracle(entry, lambda key: key[1] * n + key[2] + n * n * (key[0] == "q"))


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


# ---------------------------------------------------------------------------
# the definition file's composition triples, pair by pair


def compose_triples_oracle(g: FiniteGroupoid) -> list[list[int]]:
    """The [x, y, xy] triples of every defined product, x-major, as the
    groupoid file lists them."""
    return [
        [x, y, int(g.compose_table[x, y])]
        for x in range(g.n_arrows)
        for y in range(g.n_arrows)
        if g.compose_table[x, y] != UNDEFINED
    ]


# ---------------------------------------------------------------------------
# the coefficient norm without the closed form on group orbits


def closed_form_oracle(g, phi):
    """The largest ||Phi_u||_tr / m over the units u that are an orbit alone,
    and the largest such m, one unit at a time; (-inf, 0) without one."""
    value, size = -np.inf, 0
    for u in range(g.n_units):
        fiber = np.flatnonzero(g.range_of == u)
        if (g.source_of[fiber] == u).all():
            s = np.linalg.svd(gram_matrix_oracle(g, phi, u))[1]
            value, size = max(value, s.sum() / fiber.size), max(size, fiber.size)
    return value, size


def _solve_inputs_oracle(g, phi, closed_form):
    """The seeds of ``stieltjes_seeds_oracle`` as (2, n_arrows) arrays of
    rho and tau, conjugation symmetric, and the lower bound of
    ``stieltjes_solve_oracle``."""
    seeds, lower = stieltjes_seeds_oracle(g, phi)
    if closed_form:
        value, size = closed_form_oracle(g, phi)
        lower = max(lower, value * (1 - 8 * float(np.finfo(float).eps) * size))
    arrays = []
    for seed in seeds:
        values = np.zeros((2, g.n_arrows), dtype=complex)
        for (name, c), v in seed.items():
            values[int(name == "t"), [g.inverse_of[c], c]] = np.conj(v), v
        arrays.append(values)
    return arrays, lower


def stieltjes_solve_oracle(g, phi, closed_form=False):
    """The completion SDP of ``tied_problem_oracle`` solved from the sup-norm
    bound and the candidate witnesses of ``stieltjes_seeds_oracle`` alone, as
    the coefficient norm was computed before its closed form on one-unit
    orbits: the interior-point method runs on groups too.

    With ``closed_form`` the bound is raised to the closed form on one-unit
    orbits, rounded down by 8 eps per element of the largest such fiber, as
    the coefficient norm was solved before the polar completion on every
    groupoid with an orbit of more than one unit (the closed form's own
    completion, then its third seed, verifies only when every orbit is one
    unit)."""
    seeds, lower = _solve_inputs_oracle(g, phi, closed_form)
    return interior_point_oracle(tied_problem_oracle(g, phi), lower=lower,
                                seeds=tuple(x.ravel() for x in seeds))


def untied_solve_oracle(g, phi, closed_form=False):
    """The solve of ``stieltjes_solve_oracle``, from the same bound and
    seeds, on ``untied_problem_oracle``: each seed is read at the Gram ids
    of every base position."""
    seeds, lower = _solve_inputs_oracle(g, phi, closed_form)
    at = np.concatenate([x.ravel() for x in _base_ids_oracle(g)])
    return interior_point_oracle(untied_problem_oracle(g, phi), lower=lower,
                                seeds=tuple(x[:, at].ravel() for x in seeds))


def fourier_norm_oracle(irreps, phi) -> float:
    """Eymard's norm sum over the irreps pi of d_pi ||phi^(pi)||_1 / |G| on a
    finite group, with phi^(pi) = sum_x phi(x) pi(x); ``irreps`` holds one
    (|G|, d_pi, d_pi) stack of unitary matrices per irrep, indexed like phi."""
    phi = np.asarray(phi, dtype=complex)
    total = 0.0
    for rep in irreps:
        hat = np.tensordot(phi, rep, axes=1)
        total += rep.shape[1] * float(np.linalg.svd(hat, compute_uv=False).sum())
    return total / phi.size


def s3_irreps(perms) -> list[np.ndarray]:
    """The trivial, sign and two-dimensional irreps of S3 at the permutations
    ``perms`` of (0, 1, 2): the last is the permutation action on the
    vectors with coordinate sum 0, in an orthonormal basis of them."""
    mats = np.array([np.eye(3)[:, list(p)] for p in perms])  # e_i -> e_p(i)
    basis = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T / np.sqrt([2.0, 6.0])
    return [np.ones((len(perms), 1, 1)), np.linalg.det(mats)[:, None, None],
            basis.T @ mats @ basis]


# ---------------------------------------------------------------------------
# the two-term decomposition through the doubled groupoid


def doubled_split_oracle(g, stieltjes, phi):
    """The (2, 2, n_arrows) terms (f, h) from the completion (rho, tau) of the
    certificate ``stieltjes``: the block function (rho, phi; phi*, tau) on the
    product of g with the pair groupoid of 2 points is reconstructed there as
    one coefficient (xi, xi) by the square-root section, one fiber at a time,
    and xi is split back into two terms on g."""
    rho, tau = stieltjes.witness["rho"], stieltjes.witness["tau"]
    embedded = off_diagonal_embed(g, rho, phi, tau)
    xi = pd_to_section_loop_oracle(product_with_pair_groupoid(g), embedded, tol=1e-7)
    # parts[x, i, j] = xi[product_arrow_id(x, i, j)]
    parts = xi.reshape(g.n_arrows, 2, 2)
    return np.array([(parts[:, 1, 0], parts[:, 0, 0]), (parts[:, 1, 1], parts[:, 0, 1])])
