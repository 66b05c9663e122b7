"""Independent reference computations and output checks for the benchmark.

Everything here reads only the raw arrays of a groupoid (range, source,
inverse, the dense composition table, unit arrows and weights) and works from
the definitions with plain numpy.  No function of the program under test is
called, so a check cannot pass merely because the program agrees with itself.

A check raises ``CheckFailed`` on a wrong output.  ``KnownFault`` marks the one
check that the program is known to fail today (see README.md); a task that
fails only that check counts as failed without making the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

UNDEFINED = -1


class CheckFailed(AssertionError):
    pass


class KnownFault(CheckFailed):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def require_close(got, want, tol: float, what: str) -> None:
    """max |got - want| <= tol * max(1, max |want|)."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    err = float(np.abs(got - want).max(initial=0.0))
    require(err <= tol * scale, f"{what}: error {err:.3e} exceeds {tol:.1e} x {scale:.3g}")


def require_rel(got: float, want: float, tol: float, what: str) -> None:
    err = abs(float(got) - float(want))
    require(err <= tol * max(1e-300, abs(float(want))),
            f"{what}: {float(got)!r} vs {float(want)!r} (rel {err / max(1e-300, abs(want)):.3e} > {tol:.1e})")


# ---------------------------------------------------------------------------
# groupoid structure, read straight from the arrays


class GroupoidOracle:
    """Dense definitions over one groupoid, from its composition table alone."""

    def __init__(self, g):
        self.rng_of = np.asarray(g.range_of, dtype=int)
        self.src_of = np.asarray(g.source_of, dtype=int)
        self.inv_of = np.asarray(g.inverse_of, dtype=int)
        self.table = np.asarray(g.compose_table, dtype=int)
        self.units = np.asarray(g.unit_arrows, dtype=int)
        self.w = np.asarray(g.weights, dtype=float)
        self.n = self.rng_of.shape[0]
        self.n_units = self.units.shape[0]
        a, b = np.nonzero(self.table != UNDEFINED)
        self.a, self.b, self.ab = a, b, self.table[a, b]
        self.fibers = [np.flatnonzero(self.rng_of == u) for u in range(self.n_units)]

    # -- functions on arrows ------------------------------------------------

    def convolve(self, f, h) -> np.ndarray:
        """(f*h)(x) = sum over all factorizations x = a b of w(a) f(a) h(b)."""
        out = np.zeros(self.n, dtype=complex)
        np.add.at(out, self.ab, self.w[self.a] * f[self.a] * h[self.b])
        return out

    def star(self, f) -> np.ndarray:
        return np.conj(np.asarray(f)[self.inv_of])

    def coefficient(self, f, h) -> np.ndarray:
        """Left-regular coefficient (f, h) = h * f^star."""
        return self.convolve(h, self.star(f))

    def right_matrix(self, f) -> np.ndarray:
        """Matrix of h -> h * f."""
        m = np.zeros((self.n, self.n), dtype=complex)
        np.add.at(m, (self.ab, self.a), self.w[self.a] * f[self.b])
        return m

    def left_matrix(self, f) -> np.ndarray:
        """Matrix of h -> f * h."""
        m = np.zeros((self.n, self.n), dtype=complex)
        np.add.at(m, (self.ab, self.b), self.w[self.a] * f[self.a])
        return m

    def reduced_norm(self, f) -> float:
        """Largest weighted spectral norm of a range-fiber block of h -> h*f."""
        m = self.right_matrix(f)
        best = 0.0
        for t in self.fibers:
            rw = np.sqrt(self.w[t])
            block = m[np.ix_(t, t)] * (rw[:, None] / rw[None, :])
            best = max(best, float(np.linalg.norm(block, 2)))
        return best

    def section_norm(self, xi) -> float:
        mass = np.bincount(self.rng_of, weights=self.w * np.abs(xi) ** 2, minlength=self.n_units)
        return float(np.sqrt(mass.max()))

    def i_norm(self, f) -> float:
        af = np.abs(f)
        by_range = np.bincount(self.rng_of, weights=self.w * af, minlength=self.n_units)
        by_source = np.bincount(self.src_of, weights=self.w[self.inv_of] * af, minlength=self.n_units)
        return float(max(by_range.max(), by_source.max()))

    def gram(self, phi, u: int) -> np.ndarray:
        t = self.fibers[u]
        return np.asarray(phi)[self.table[np.ix_(self.inv_of[t], t)]]

    def stieltjes_blocks(self, rho, phi, tau) -> list[np.ndarray]:
        """The completion blocks [[rho, phi], [phi^star, tau]] per unit, rebuilt here."""
        out = []
        for u in range(self.n_units):
            r, p, t = self.gram(rho, u), self.gram(phi, u), self.gram(tau, u)
            out.append(np.block([[r, p], [p.conj().T, t]]))
        return out

    # -- structure ----------------------------------------------------------

    def orbits(self) -> list[list[int]]:
        parent = list(range(self.n_units))

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for r, s in zip(self.rng_of, self.src_of):
            parent[find(int(r))] = find(int(s))
        groups: dict[int, list[int]] = {}
        for u in range(self.n_units):
            groups.setdefault(find(u), []).append(u)
        return list(groups.values())

    def center_dim(self) -> int:
        """Dimension of the centre of the groupoid algebra: the sum over orbits
        of the number of conjugacy classes of the isotropy group."""
        total = 0
        for orbit in self.orbits():
            u = orbit[0]
            iso = [int(x) for x in np.flatnonzero((self.rng_of == u) & (self.src_of == u))]
            seen: set[int] = set()
            for x in iso:
                if x in seen:
                    continue
                total += 1
                for h in iso:
                    seen.add(int(self.table[self.table[h, x], self.inv_of[h]]))
        return total

    def bisection_count_brute_force(self) -> int:
        count = 0
        for picks in itertools.product(*[list(map(int, t)) for t in self.fibers]):
            if len({int(self.src_of[x]) for x in picks}) == self.n_units:
                count += 1
        return count

    def is_bisection(self, picks) -> bool:
        picks = [int(p) for p in picks]
        if len(picks) != self.n_units:
            return False
        if any(not 0 <= x < self.n or self.rng_of[x] != u for u, x in enumerate(picks)):
            return False
        return sorted(int(self.src_of[x]) for x in picks) == list(range(self.n_units))


def check_groupoid_structure(o: GroupoidOracle, n_arrows: int, n_units: int, rng) -> None:
    """Groupoid laws, checked from the arrays: composability pattern, products'
    endpoints, identities, inverses, and associativity on a seeded sample."""
    require(o.n == n_arrows and o.n_units == n_units,
            f"shape {o.n} arrows / {o.n_units} units, expected {n_arrows} / {n_units}")
    defined = o.table != UNDEFINED
    should = o.src_of[:, None] == o.rng_of[None, :]
    require(bool(np.array_equal(defined, should)), "composition defined on the wrong pairs")
    require(bool(np.all(o.rng_of[o.ab] == o.rng_of[o.a]) and np.all(o.src_of[o.ab] == o.src_of[o.b])),
            "a product has the wrong endpoints")
    x = np.arange(o.n)
    require(bool(np.all(o.table[o.units[o.rng_of], x] == x) and np.all(o.table[x, o.units[o.src_of]] == x)),
            "a unit arrow is not an identity")
    require(bool(np.all(o.table[o.inv_of, x] == o.units[o.src_of])
                 and np.all(o.table[x, o.inv_of] == o.units[o.rng_of])), "an inverse law fails")
    k = min(4000, o.a.shape[0])
    pick = rng.choice(o.a.shape[0], size=k, replace=False)
    xa, xb, xab = o.a[pick], o.b[pick], o.ab[pick]
    by_range = np.argsort(o.rng_of, kind="stable")
    sizes = np.bincount(o.rng_of, minlength=o.n_units)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    u = o.src_of[xb]
    zs = by_range[starts[u] + (rng.random(k) * sizes[u]).astype(int)]
    require(bool(np.array_equal(o.table[xab, zs], o.table[xa, o.table[xb, zs]])),
            "associativity fails on a sampled triple")
    require(bool(np.all(o.w > 0) and np.allclose(o.w, o.w[o.units[o.src_of]], rtol=1e-12, atol=0)),
            "weights are not a left Haar system")


# ---------------------------------------------------------------------------
# norm oracles


def cyclic_a_norm(phi) -> float:
    """A(Z_n) norm of phi on a cyclic group: the l1 sum of its Fourier coefficients."""
    phi = np.asarray(phi, dtype=complex)
    return float(np.abs(np.fft.fft(phi)).sum() / phi.shape[0])


def bundle_a_norm(o: GroupoidOracle, phi) -> float:
    """Coefficient norm of phi on a bundle of cyclic groups built with cyclic
    tables: the largest A(Z_k) norm over the fibers (the blocks decouple)."""
    return max(cyclic_a_norm(np.asarray(phi)[t]) for t in o.fibers)


# Relative tolerance against an exact norm.  The package's own acceptance
# tolerance; the solver's certified values sit up to 1.5e-6 above the optimum.
EXACT_TOL = 1e-5


def check_stieltjes(o: GroupoidOracle, phi, cert, exact: float | None, tol: float = EXACT_TOL) -> None:
    """Witness blocks PSD, objective entries under the value, value >= sup,
    and the value within ``tol`` of an exact norm when one is known."""
    phi = np.asarray(phi, dtype=complex)
    value = float(cert.value)
    rho, tau = cert.witness["rho"], cert.witness["tau"]
    scale = max(1.0, value)
    sup = float(np.abs(phi).max())
    require(value >= sup * (1 - 1e-12), f"value {value!r} is below the sup norm {sup!r}")
    diag = max(float(np.max(rho[o.units].real)), float(np.max(tau[o.units].real)))
    require(diag <= value + 1e-9 * scale, f"witness unit value {diag!r} exceeds the value {value!r}")
    worst = min(float(np.linalg.eigvalsh(b)[0]) for b in o.stieltjes_blocks(rho, phi, tau))
    require(worst >= -1e-9 * scale, f"witness block has eigenvalue {worst:.3e}")
    if exact is not None:
        require(value >= exact * (1 - 1e-9), f"value {value!r} is below the exact norm {exact!r}")
        require_rel(value, exact, tol, "norm against the exact value")


def check_schur(a, cert, exact: float | None, tol: float = EXACT_TOL) -> None:
    """The factorization reproduces a with squared row norms <= value, the
    completion is PSD, and the value matches an exact norm when known."""
    a = np.asarray(a, dtype=complex)
    value = float(cert.value)
    w = cert.witness
    left, right = np.asarray(w["left"]), np.asarray(w["right"])
    require_close(left @ right.conj().T, a, 1e-8, "factorization")
    rows = max(float(np.max(np.sum(np.abs(left) ** 2, axis=1))),
               float(np.max(np.sum(np.abs(right) ** 2, axis=1))))
    require(rows <= value * (1 + 1e-8) + 1e-12, f"squared row norm {rows!r} exceeds value {value!r}")
    big = np.block([[w["p_block"], a], [a.conj().T, w["q_block"]]])
    worst = float(np.linalg.eigvalsh((big + big.conj().T) / 2)[0])
    require(worst >= -1e-9 * max(1.0, value), f"completion has eigenvalue {worst:.3e}")
    require(value >= float(np.abs(a).max()) * (1 - 1e-12), "value below the sup norm")
    if exact is not None:
        require_rel(value, exact, tol, "cb norm against the exact value")


def check_decomposition(o: GroupoidOracle, phi, upper) -> None:
    """The upper certificate's terms reproduce phi and cost exactly its value."""
    terms = upper.witness["terms"]
    total = np.zeros(o.n, dtype=complex)
    cost = 0.0
    for f, h in terms:
        total += o.coefficient(np.asarray(f), np.asarray(h))
        cost += o.section_norm(f) * o.section_norm(h)
    require_close(total, phi, 1e-8, "decomposition terms")
    require_rel(upper.value, cost, 1e-9, "decomposition cost")


def check_bounds(o: GroupoidOracle, phi, bounds, exact: float | None, lower_check: str = "check") -> None:
    """fourier_norm_bounds: upper certificate re-verified, lower >= sup with a
    PSD Stieltjes witness, both sides of an exact norm when one is known.

    ``lower_check`` is "check" (lower <= exact), "skip" (inputs on which the
    known fault shows on some seeds only) or "known-fault" (raise KnownFault).
    """
    lower, upper = bounds
    phi = np.asarray(phi, dtype=complex)
    check_decomposition(o, phi, upper)
    sup = float(np.abs(phi).max())
    require(lower.value >= sup * (1 - 1e-12), "lower bound below the sup norm")
    check_stieltjes(o, phi, lower.witness["stieltjes"], None)
    if exact is None:
        return
    require(upper.value >= exact * (1 - 1e-8), f"upper {upper.value!r} below the exact norm {exact!r}")
    if lower_check != "skip" and lower.value > exact * (1 + 1e-12):
        msg = f"lower {lower.value!r} exceeds the exact norm {exact!r}"
        raise (KnownFault if lower_check == "known-fault" else CheckFailed)(msg)


# ---------------------------------------------------------------------------
# structure oracles


def check_commutant(o: GroupoidOracle, basis, rng) -> None:
    """The commutant of the right regular representation is the left regular
    algebra: dimension |G|, orthonormal, commuting with right convolutions."""
    require(len(basis) == o.n, f"commutant dimension {len(basis)}, expected {o.n}")
    _require_orthonormal(basis)
    for _ in range(2):
        f = rng.standard_normal(o.n) + 1j * rng.standard_normal(o.n)
        r = o.right_matrix(f)
        for t in basis:
            require_close(t @ r, r @ t, 1e-8, "commutant element against right convolution")


def check_reduced_algebra(o: GroupoidOracle, basis, rng) -> None:
    """Right convolutions span |G| dimensions and commute with left convolutions."""
    require(len(basis) == o.n, f"reduced algebra dimension {len(basis)}, expected {o.n}")
    _require_orthonormal(basis)
    f = rng.standard_normal(o.n) + 1j * rng.standard_normal(o.n)
    left = o.left_matrix(f)
    for t in basis:
        require_close(t @ left, left @ t, 1e-8, "reduced algebra element against left convolution")


def check_intersection(o: GroupoidOracle, basis, is_pair: bool, rng) -> None:
    """The commutant meets the reduced algebra in the centre: scalars on pair
    groupoids, in general the class functions of the isotropy groups."""
    want = 1 if is_pair else o.center_dim()
    require(len(basis) == want, f"intersection dimension {len(basis)}, expected {want}")
    if is_pair:
        m = np.asarray(basis[0])
        require_close(m, m[0, 0] * np.eye(o.n), 1e-9, "intersection element is not a scalar")
    f = rng.standard_normal(o.n) + 1j * rng.standard_normal(o.n)
    r, left = o.right_matrix(f), o.left_matrix(f)
    for t in basis:
        require_close(t @ r, r @ t, 1e-8, "intersection against right convolution")
        require_close(t @ left, left @ t, 1e-8, "intersection against left convolution")


def _require_orthonormal(basis) -> None:
    v = np.stack([np.asarray(m).ravel() for m in basis])
    require_close(v.conj() @ v.T, np.eye(len(basis)), 1e-9, "basis is not orthonormal")


def check_bisections(o: GroupoidOracle, bisections, expected: int) -> None:
    require(len(bisections) == expected, f"{len(bisections)} bisections, expected {expected}")
    picks = [tuple(b.picks) for b in bisections]
    require(len(set(picks)) == len(picks), "duplicate bisections")
    require(all(o.is_bisection(p) for p in picks), "an enumerated bisection is invalid")


def check_bisection_through(o: GroupoidOracle, x: int, b) -> None:
    require(b is not None, f"no bisection found through arrow {x}")
    require(o.is_bisection(b.picks) and x in b.picks, f"bisection through {x} is invalid")


def check_duality(report, expected: int, n_arrows: int) -> None:
    require(report.bisection_count == expected, f"{report.bisection_count} bisections, expected {expected}")
    require(len(report.roundtrip_ok) == expected and all(report.roundtrip_ok), "a round trip fails")
    require(report.injective and report.product_spot_ok, "injectivity or product compatibility fails")
    require(len(report.arrows_on_bisections) == n_arrows and all(report.arrows_on_bisections),
            "an arrow lies on no bisection")
    require(not report.failures, f"report lists failures: {report.failures[:1]}")


def expected_bisections(kind: str, param) -> int:
    """n! for pair(n), the product of the group orders for a group bundle."""
    if kind == "pair":
        return math.factorial(param)
    if kind == "bundle":
        return math.prod(param)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# command line outputs


class FileGroupoid:
    """The arrays of a groupoid definition file, parsed without the program."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        n = len(data["arrows"])
        self.range_of = np.zeros(n, dtype=int)
        self.source_of = np.zeros(n, dtype=int)
        self.inverse_of = np.zeros(n, dtype=int)
        for a in data["arrows"]:
            self.range_of[a["id"]], self.source_of[a["id"]], self.inverse_of[a["id"]] = a["r"], a["s"], a["inv"]
        self.compose_table = np.full((n, n), UNDEFINED, dtype=int)
        for x, y, xy in data["compose"]:
            self.compose_table[x, y] = xy
        self.unit_arrows = np.asarray(data["unit_arrows"], dtype=int)
        uw = np.ones(int(data["units"]))
        for entry in data["weights"]:
            uw[entry["unit"]] = entry["w"]
        self.weights = uw[self.source_of]


def check_cli_records(code: int, text: str) -> dict:
    """Exit code 0 and no record with status fail in a machine-format output."""
    require(code == 0, f"exit code {code}")
    payload = json.loads(text)
    bad = [r["name"] for r in payload["records"] if r["status"] == "fail"]
    require(not bad, f"failed records {bad}")
    require(payload["exit"] == 0, "report says exit != 0")
    return {r["name"]: r for r in payload["records"]}
