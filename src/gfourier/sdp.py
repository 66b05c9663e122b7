"""A small structured SDP solver: a primal-dual interior-point method.

The problem family: a list of Hermitian blocks whose entries are either fixed
complex data or shared affine variables; a designated subset of variables
("objective" variables, all sitting on block diagonals) whose common bound t
is minimized subject to every block being positive semidefinite.  Pinning them
to t (raising a diagonal entry preserves feasibility, so this loses nothing)
and splitting every other variable into its real and imaginary part gives

    minimize t  subject to  S = F0 + sum_k y_k A_k + t A_obj >= 0  blockwise,

whose dual asks for Z >= 0 with <A_k, Z> = 0 and <A_obj, Z> = 1; every such Z
proves t >= -<F0, Z>.  The solver follows the central path Z S = mu I with the
HKM search direction and Mehrotra's predictor-corrector steps, starting
infeasible on the dual side.  A solve returns two certificates:

* the value t with a primal witness, the variables of an interior iterate,
  so its blocks are positive definite;
* a lower bound -<F0, Z> from the final dual iterate, made exactly dual
  feasible: its components along the A_k are removed (the A_k have disjoint
  supports, so this averages entries), a multiple of the identity on the
  variable-free diagonal restores Z >= 0, and Z is rescaled to <A_obj, Z> = 1.

A problem without objective variables is a feasibility problem, solved as
min t with A_obj = I and accepted once t <= 0 up to 1e-10 of the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_REL_GAP = 1e-7
DEFAULT_MAX_ITER = 100
_STEP_FRACTION = 0.95


class DiagBoundSdp:
    """Block problem builder.

    Entries are declared once per oriented position; the Hermitian mirror is
    implied.  Variables are named by arbitrary hashable keys; declaring an
    entry with ``conj=True`` stores the conjugate of the variable there.
    Distinct variables occupy distinct positions.
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

    def validate(self) -> None:
        for key in self._objective:
            if key not in self._var_occ:
                raise ValueError(f"objective variable {key!r} never occurs")
            for b, i, j, conj in self._var_occ[key]:
                if i != j:
                    raise ValueError(
                        f"objective variable {key!r} occurs off the diagonal at {(b, i, j)}"
                    )
        for b, i, j, _ in self._fixed:
            if not (0 <= i < self.block_sizes[b] and 0 <= j < self.block_sizes[b]):
                raise ValueError("fixed entry out of range")

    # -- assembly -----------------------------------------------------------

    def blocks_for(self, values: dict, t: float | None = None) -> list[np.ndarray]:
        """Dense Hermitian blocks for a full variable assignment.

        Objective variables may be supplied in ``values`` or pinned to ``t``.
        """
        mats = [np.zeros((s, s), dtype=complex) for s in self.block_sizes]
        for b, i, j, v in self._fixed:
            mats[b][i, j] = v
            mats[b][j, i] = np.conj(v)
        for key, occs in self._var_occ.items():
            if key in values:
                v = complex(values[key])
            elif t is not None and key in self._objective:
                v = complex(t)
            else:
                raise KeyError(f"no value for variable {key!r}")
            for b, i, j, conj in occs:
                z = np.conj(v) if conj else v
                mats[b][i, j] = z
                mats[b][j, i] = np.conj(z)
        return mats

    def min_eigenvalue(self, values: dict, t: float | None = None) -> float:
        worst = np.inf
        for m in self.blocks_for(values, t):
            if m.size:
                worst = min(worst, float(np.linalg.eigvalsh(m)[0]))
        return 0.0 if worst is np.inf else worst

    def data_scale(self) -> float:
        return max(1.0, max((abs(v) for *_, v in self._fixed), default=0.0))


@dataclass
class SdpSolution:
    """``value`` is backed by the PSD blocks of ``variables``; ``lower`` is the
    larger of the caller's sound lower bound and -<F0, Z> for the dual blocks
    ``dual`` (in the problem's block order; None when no solve ran or no
    dual certificate was found)."""

    value: float
    variables: dict
    status: str
    probes: int = 0
    iterations: int = 0
    lower: float = -np.inf
    dual: list[np.ndarray] | None = None


class SdpInfeasibleError(RuntimeError):
    pass


def _herm(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[:, 0].min(initial=np.inf))


def _step(inv_factor: np.ndarray, direction: np.ndarray, fraction: float) -> float:
    """min(1, fraction * the largest alpha keeping L L* + alpha D PSD)."""
    low = _min_eig(inv_factor @ direction @ _herm(inv_factor))
    return 1.0 if low >= -fraction else -fraction / low


class _Lmi:
    """The real parametrisation F(w) = F0 + sum_k w_k A_k of a DiagBoundSdp.

    Coordinates are the real and imaginary parts of the free variables (parts
    that vanish identically are dropped) and t, last.  Each A_k is a list of
    (position, coefficient) entries.  Block matrices are stacked in one
    (blocks, s, s) array: every block is padded to the largest size s with t
    on the padded diagonal, which adds only t >= 0, already implied because
    the objective entries are diagonal entries of PSD blocks.
    """

    def __init__(self, problem: DiagBoundSdp):
        self.problem = problem
        sizes = problem.block_sizes
        self.phase_one = not problem._objective
        self.shape = (len(sizes), max(sizes, default=0), max(sizes, default=0))
        self.f0 = np.zeros(self.shape, dtype=complex)
        for b, i, j, v in problem._fixed:
            self.f0[b, i, j], self.f0[b, j, i] = v, np.conj(v)
        # each position holds one variable or its conjugate; a variable held
        # both ways somewhere (a tied mirror pair) is real
        held: dict[tuple, tuple] = {}
        real = set()
        for key, occs in problem._var_occ.items():
            for b, i, j, conj in occs:
                for pos, cj in (((b, i, j), conj), ((b, j, i), not conj)):
                    prev = held.setdefault(pos, (key, cj))
                    if prev[0] != key:
                        raise ValueError(f"variables {prev[0]!r} and {key!r} share a position")
                    if prev[1] != cj and i != j:
                        real.add(key)
        entries = []
        for pos, (key, cj) in held.items():
            if key in problem._objective:
                entries.append((pos, "t", 1.0))
            else:
                entries.append((pos, (key, 0), 1.0))
                if pos[1] != pos[2] and key not in real:
                    entries.append((pos, (key, 1), -1j if cj else 1j))
        for b, size in enumerate(sizes):
            first = 0 if self.phase_one else size
            entries += [((b, i, i), "t", 1.0) for i in range(first, self.shape[1])]
        coords = list(dict.fromkeys(k for _, k, _ in entries if k != "t")) + ["t"]
        self.m = len(coords)
        self.coord = {k: n for n, k in enumerate(coords)}
        block, row, col = np.array([pos for pos, _, _ in entries], dtype=int).reshape(-1, 3).T
        self.e_flat = np.ravel_multi_index((block, row, col), self.shape)
        self.e_tflat = np.ravel_multi_index((block, col, row), self.shape)
        self.e_var = np.array([self.coord[k] for _, k, _ in entries], dtype=int)
        self.e_coef = np.array([c for _, _, c in entries], dtype=complex)
        self.norm2 = np.bincount(self.e_var, np.abs(self.e_coef) ** 2, minlength=self.m)
        # per block: its coordinates, and each entry's local coordinate,
        # position and coefficient, for the Newton matrix
        self.block_entries = []
        for b in range(len(sizes)):
            sel = np.flatnonzero(block == b)
            coords, local = np.unique(self.e_var[sel], return_inverse=True)
            self.block_entries.append((b, coords, local, row[sel], col[sel], self.e_coef[sel]))
        # the dual lift: every diagonal position that holds no free variable
        self.lift = np.zeros(self.shape)
        self.lift[:, range(self.shape[1]), range(self.shape[1])] = 1.0
        self.lift.flat[self.e_flat[(row == col) & (self.e_var < self.m - 1)]] = 0.0
        edge = np.arange(self.shape[1]) >= np.array(sizes)[:, None]
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
        for b, coords, local, p, q, c in self.block_entries:
            n = coords.size
            a = np.zeros((n, *self.shape[1:]), dtype=complex)
            a[local, p, q] = c
            u = (z[b] @ a @ s_inv[b])[:, q, p] * c
            into = (np.arange(n)[:, None] * n + local).ravel()
            m[coords[:, None], coords] += np.bincount(into, u.real.ravel(), n * n).reshape(n, n)
        return m

    def certify(self, z: np.ndarray) -> tuple[float, list[np.ndarray] | None]:
        """The dual bound -<F0, Z> of Z made exactly dual feasible (padding
        removed), and that Z as the problem's blocks."""
        coeffs = self.adjoint(z) / self.norm2
        coeffs[-1] = 0.0
        z = z - self.scatter(coeffs)
        low = _min_eig(z)
        if low < 0:  # lift a rounding margin past zero, then demand PSD
            z = z + (1e-14 * float(np.abs(z).max()) - low) * self.lift
            if _min_eig(z) < 0:
                return -np.inf, None
        z = np.where(self.padding, 0.0, z)
        z = z / self.adjoint(z)[-1]
        blocks = [z[b, :size, :size] for b, size in enumerate(self.problem.block_sizes)]
        return -float(np.vdot(z, self.f0).real), blocks

    def values(self, w: np.ndarray) -> dict:
        part = {k: w[n] for k, n in self.coord.items()}
        out = {key: complex(part.get((key, 0), 0.0), part.get((key, 1), 0.0))
               for key in self.problem._var_occ}
        return {**out, **{key: complex(w[-1]) for key in self.problem._objective}}


def _interior_point(lmi: _Lmi, lower: float, rel_gap: float, max_iter: int,
                    limit: float, scale: float) -> SdpSolution:
    psd_slack = 1e-10 * scale
    target = psd_slack if lmi.phase_one else lower + rel_gap * max(1.0, abs(lower))
    limit = psd_slack if lmi.phase_one else limit
    w = np.zeros(lmi.m)
    w[-1] = max(0.0, -_min_eig(lmi.f0)) + scale
    s = lmi.slack(w)
    feasible = _min_eig(s) > 0
    if not feasible:  # the objective does not reach every diagonal: start infeasible
        s = w[-1] * np.broadcast_to(np.eye(lmi.shape[1]), lmi.shape)
    z = np.linalg.inv(s)
    z = z / lmi.adjoint(z)[-1]
    c = np.eye(lmi.m)[-1]
    witness, status, steps = None, "max_iter", 0
    for steps in range(max_iter + 1):
        try:
            s_fac, z_fac = (np.linalg.inv(np.linalg.cholesky(a)) for a in (s, z))
        except np.linalg.LinAlgError:
            status = "stalled"
            break
        t = float(w[-1])
        if feasible:
            witness = w.copy()
            if t <= target:
                status = "optimal"
                break
        gap = float(np.vdot(z, s).real)
        if (feasible and not lmi.phase_one and gap <= rel_gap * abs(t)) \
                or -np.vdot(z, lmi.f0).real > limit:
            bound, _ = lmi.certify(z)
            if bound > limit:
                raise SdpInfeasibleError(
                    f"no feasible point: a dual bound {bound:.3e} exceeds {limit:.3e}")
            if feasible and not lmi.phase_one and t - bound <= max(rel_gap * abs(t), 1e-12 * scale):
                status = "optimal"
                break
        if steps == max_iter:
            break
        s_inv = _herm(s_fac) @ s_fac
        rp = c - lmi.adjoint(z)
        rd = lmi.slack(w) - s  # zero once the slack is feasible
        newton = lmi.newton_matrix(z, s_inv)

        def direction(h):
            """HKM step: dw from the Newton matrix, dZ = sym(H - Z dS S^-1)."""
            dw = np.linalg.solve(newton, lmi.adjoint(h - z @ rd @ s_inv) - rp)
            ds = lmi.scatter(dw) + rd
            dz = h - z @ ds @ s_inv
            return dw, ds, (dz + _herm(dz)) / 2

        # Mehrotra: an affine predictor sets the centring, a corrector steps
        mu = gap / (lmi.shape[0] * lmi.shape[1])
        dw, ds, dz = direction(-z)
        ap, ad = _step(z_fac, dz, 1.0), _step(s_fac, ds, 1.0)
        sigma = min(1.0, max(0.0, np.vdot(z + ap * dz, s + ad * ds).real / gap) ** 3)
        dw, ds, dz = direction(sigma * mu * s_inv - z - dz @ ds @ s_inv)
        ap, ad = _step(z_fac, dz, _STEP_FRACTION), _step(s_fac, ds, _STEP_FRACTION)
        z = z + ap * dz
        w = w + ad * dw
        if feasible or ad == 1.0:
            s, feasible = lmi.slack(w), True
        else:
            s = s + ad * ds
    if witness is None:
        raise SdpInfeasibleError(f"no feasible point found in {steps} Newton steps")
    bound, dual = lmi.certify(z)
    value = lower if lmi.phase_one else float(witness[-1])
    return SdpSolution(value, lmi.values(witness), status, 1, steps, max(lower, bound), dual)


def solve_diag_bound_sdp(
    problem: DiagBoundSdp,
    lower: float = 0.0,
    seeds: tuple[dict, ...] = (),
    rel_gap: float = DEFAULT_REL_GAP,
    max_iter: int = DEFAULT_MAX_ITER,
    cap: float | None = None,
) -> SdpSolution:
    """Minimize the common bound t on the objective entries subject to PSD blocks.

    ``lower`` must be a sound lower bound for the optimum (0 works whenever
    the objective entries are diagonal); the solve stops as soon as its
    value comes within ``rel_gap`` of it.  ``seeds`` are candidate variable
    assignments; the best one that verifies as feasible within ``rel_gap``
    of ``lower`` is returned without a solve.  Otherwise the interior-point
    method runs for at most ``max_iter`` Newton steps, until the value and
    its certified dual bound are within ``rel_gap``.  The returned value is
    always backed by a witness whose blocks are PSD.  Raises
    SdpInfeasibleError when a dual bound proves the optimum above ``cap``.
    """
    problem.validate()
    scale = problem.data_scale()
    target = lower + rel_gap * max(1.0, abs(lower))
    best = None
    for seed in seeds:
        t_seed = max([lower] + [abs(complex(seed[k]).real)
                                for k in problem._objective if k in seed])
        if t_seed <= target and (best is None or t_seed < best[0]) \
                and problem.min_eigenvalue(seed, t=t_seed) >= -1e-10 * scale:
            best = (t_seed, {**seed, **{k: t_seed for k in problem._objective}})
    if best is not None:
        return SdpSolution(float(best[0]), best[1], "seeded", lower=lower)
    limit = cap if cap is not None else 1e6 * scale
    return _interior_point(_Lmi(problem), lower, rel_gap, max_iter, limit, scale)
