"""The seeded re-check of the coefficient-norm problem: one Hermitian
block [[rho_b, Phi_b], [Phi_b^H, tau_b]] per orbit base b, Phi_b = phi[ids]
its Gram block and rho, tau functions of the Gram id; the least bound t on
every diagonal entry under which every block is PSD is the coefficient norm.
``gfourier.norms`` computes a completion (rho, tau) and a certified lower
bound; ``solve_diag_bound_sdp`` builds the blocks from the Gram stacks, pins
their diagonals to t (raising a diagonal entry keeps a block PSD) and
demands PSD.  A completion that fails is never trusted: t rises by the
deficit, so the value is always backed by a PSD witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_REL_GAP = 1e-7


def _herm(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _blocks(completion: np.ndarray, data: np.ndarray, t) -> np.ndarray:
    """The blocks [[P, Phi], [Phi^H, Q]] of a (k, 2, m, m) completion stack
    and a (k, m, m) data stack, their diagonals pinned to t (a number, or
    one per block)."""
    blocks = np.concatenate([np.concatenate([completion[:, 0], data], axis=2),
                             np.concatenate([_herm(data), completion[:, 1]], axis=2)], axis=1)
    diagonal = np.arange(blocks.shape[-1])
    blocks[:, diagonal, diagonal] = np.reshape(t, (-1, 1))
    return blocks


@dataclass
class SdpSolution:
    """``value`` is backed by the PSD blocks of the re-checked completion
    pinned to it; ``lower`` is the caller's sound lower bound and ``dual`` its
    certificate (or None); ``status`` is "seeded" when the value is within
    1e-7 of ``lower``, else "open"; ``probes`` and ``iterations`` count the
    caller's stall-closing steps and their Newton steps."""

    value: float
    status: str
    probes: int = 0
    iterations: int = 0
    lower: float = -np.inf
    dual: np.ndarray | None = None


def solve_diag_bound_sdp(
    grams: tuple[np.ndarray, ...], phi: np.ndarray, completion: np.ndarray, lower: float,
    dual: np.ndarray | None = None, probes: int = 0, iterations: int = 0,
) -> SdpSolution:
    """Re-check the completion (rho, tau), the (2, n_ids) values by id, on
    the (k, m, m) stacks ``grams`` of Gram ids, whose diagonals are unit
    ids: t is the larger of ``lower`` (sound, certified by ``dual``) and the
    largest diagonal modulus, and every block [[rho[ids], phi[ids]],
    [phi[ids]^H, tau[ids]]] pinned to t must have no eigenvalue below -1e-10
    times the largest modulus of phi; t rises by any deficit beyond that."""
    scale = float(np.abs(phi).max(initial=0.0))
    t = max([lower] + [float(np.abs(completion[:, ids.diagonal(0, 1, 2)].real).max()) for ids in grams if ids.size])
    low = min((float(np.linalg.eigvalsh(_blocks(completion[:, ids].swapaxes(0, 1), phi[ids], t))[:, 0].min())
               for ids in grams if ids.size), default=np.inf)
    if low < -1e-10 * scale:
        t -= low
    status = "seeded" if t <= lower + _REL_GAP * abs(lower) else "open"
    return SdpSolution(t, status, probes, iterations, lower, dual)
