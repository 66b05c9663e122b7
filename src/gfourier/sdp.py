"""A small structured SDP solver: a primal-dual interior-point method.

The problem family: a stack of Hermitian blocks whose entries are either fixed
complex data or shared affine variables; a designated subset of variables
("objective" variables) holds every diagonal entry, and their common bound t
is minimized subject to every block being positive semidefinite.  Pinning them
to t (raising a diagonal entry preserves feasibility, so this loses nothing)
and splitting every other variable into its real and imaginary part gives

    minimize t  subject to  S = F0 + sum_k y_k A_k + t I >= 0  blockwise,

whose dual asks for Z >= 0 with <A_k, Z> = 0 and tr Z = 1; every such Z
proves t >= -<F0, Z>.  The solver follows the central path Z S = mu I with the
HKM search direction and Mehrotra's predictor-corrector steps, from the
strictly feasible t = 1 - lambda_min(F0) with every other variable 0,
infeasible on the dual side.  A solve returns two certificates:

* the value t with a primal witness, the variables of an interior iterate,
  so its blocks are positive definite;
* a lower bound -<F0, Z> from the final dual iterate, made exactly dual
  feasible: its components along the A_k are removed (the A_k have disjoint
  supports, so this averages entries), a multiple of the identity, which
  no A_k meets, restores Z >= 0, and Z is rescaled to tr Z = 1.

The interior-point method runs on the data divided once by its largest
modulus, and every tolerance is relative, so the solve is homogeneous:
scaling the data scales the value and both certificates, down to the
subnormal range.

A problem (``DiagBoundSdp``) is its fixed data with the variable ids,
conjugation flags, block sizes and objective ids of its positions.  The one
problem declared is the coefficient norm's, by
``gfourier.norms.CoefficientLayout``, which builds those arrays once per
groupoid, read-only, and gathers each phi into Hermitian data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_REL_GAP = 1e-7
_MAX_ITER = 100
_STEP_FRACTION = 0.95


def _herm(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


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
        return self.data + (held + _herm(held)) / 2

    def min_eigenvalue(self, values: np.ndarray, t: float | None = None) -> float:
        blocks = self.blocks_for(values, t)
        return min(float(np.linalg.eigvalsh(blocks[self.sizes == k, :k, :k])[:, 0].min())
                   for k in np.bincount(self.sizes).nonzero()[0] if k)

    def data_scale(self) -> float:
        return float(np.abs(self.data).max(initial=0.0))


@dataclass
class SdpSolution:
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
    low = _min_eig(inv_factor @ direction @ _herm(inv_factor))
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


def _interior_point(lmi: _Lmi, lower: float) -> SdpSolution:
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
        s_inv = _herm(s_fac) @ s_fac
        rp = c - lmi.adjoint(z)
        newton = lmi.newton_matrix(z, s_inv)

        def direction(h):
            """HKM step: dw from the Newton matrix, dZ = sym(H - Z dS S^-1)."""
            dw = np.linalg.solve(newton, lmi.adjoint(h) - rp)
            ds = lmi.scatter(dw)
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
        s = lmi.slack(w)
    bound, dual = lmi.certify(z)
    return SdpSolution(float(witness[-1]), lmi.values(witness), status, 1, steps, bound, dual)


def solve_diag_bound_sdp(
    problem: DiagBoundSdp, lower: float = 0.0, seeds: tuple[np.ndarray, ...] = (),
    dual: np.ndarray | None = None,
) -> SdpSolution:
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
        return SdpSolution(best[0], values, "seeded", lower=lower, dual=dual)
    if scale == 0.0:  # no data: the zero assignment is feasible at t = 0
        return SdpSolution(0.0, np.zeros(problem.n_vars, dtype=complex), "optimal", lower=0.0)
    solution = _interior_point(_Lmi(problem, scale), lower / scale)
    bound = solution.lower * scale
    solution.value *= scale
    solution.variables *= scale
    solution.lower = max(lower, bound)
    if dual is not None and bound <= lower:  # the solve certified no more
        solution.dual = dual
    return solution
