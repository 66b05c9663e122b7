"""The convolution *-algebra of complex functions on a finite groupoid.

An arrow function is a complex vector with one entry per arrow.  Integrals
against the Haar system become weighted sums over range fibers; the weight of
the integration variable's arrow is used throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .groupoid import UNDEFINED, Bisection, FiniteGroupoid, source_permutation


def arrow_function(g: FiniteGroupoid, values) -> np.ndarray:
    """Validate and return values as a complex vector indexed by arrows."""
    f = np.asarray(values, dtype=complex)
    if f.shape != (g.n_arrows,):
        raise ValueError(f"expected {g.n_arrows} values, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("arrow function entries must be finite")
    return f


def delta(g: FiniteGroupoid, x: int) -> np.ndarray:
    f = np.zeros(g.n_arrows, dtype=complex)
    f[x] = 1.0
    return f


def unit_function(g: FiniteGroupoid, values) -> np.ndarray:
    b = np.asarray(values, dtype=complex)
    if b.shape != (g.n_units,):
        raise ValueError(f"expected {g.n_units} values, got shape {b.shape}")
    return b


def convolve(g: FiniteGroupoid, f, h) -> np.ndarray:
    """(f*h)(x) = sum over t in the range fiber of x of w(t) f(t) h(inverse(t) x).

    A gather over the composable pairs of g and a sum over each arrow's
    segment; both factors must live on g.
    """
    f = arrow_function(g, f)
    h = arrow_function(g, h)
    _, t, y, starts = g.composable_pairs
    return np.add.reduceat(g.weights[t] * f[t] * h[y], starts)


def star(g: FiniteGroupoid, f) -> np.ndarray:
    """Isometric involution f*(x) = conj(f(inverse(x)))."""
    f = arrow_function(g, f)
    return np.conj(f[g.inverse_of])


def vee(g: FiniteGroupoid, f) -> np.ndarray:
    """Pullback along inversion, without conjugation."""
    f = arrow_function(g, f)
    return f[g.inverse_of]


def i_norm_range(g: FiniteGroupoid, f) -> float:
    """Largest weighted l1 mass of f over a range fiber; ValueError when it overflows."""
    return _largest_mass(g, arrow_function(g, f), g.range_of, g.weights)


def i_norm_source(g: FiniteGroupoid, f) -> float:
    """Largest l1 mass of f over a source fiber, weighted by the inverse arrows;
    ValueError when it overflows."""
    return _largest_mass(g, arrow_function(g, f), g.source_of, g.weights[g.inverse_of])


def i_norm(g: FiniteGroupoid, f) -> float:
    f = arrow_function(g, f)
    return max(_largest_mass(g, f, g.range_of, g.weights),
               _largest_mass(g, f, g.source_of, g.weights[g.inverse_of]))


def _largest_mass(g: FiniteGroupoid, f: np.ndarray, fibers: np.ndarray, weights: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        return _finite_norm(np.bincount(fibers, weights * np.abs(f), g.n_units).max())


def _finite_norm(value) -> float:
    """A norm of finite entries as a float; ValueError when it is not finite,
    which only an overflow of the sums and products behind it can make it."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("the norm overflows: its sums exceed the largest float")
    return value


def module_action(g: FiniteGroupoid, b, f, side: str) -> np.ndarray:
    """Two-sided action of functions-on-units: (fb)(x) = f(x) b(r(x)), (bf)(x) = b(s(x)) f(x)."""
    b = unit_function(g, b)
    f = arrow_function(g, f)
    if side == "right":
        return f * b[g.range_of]
    if side == "left":
        return b[g.source_of] * f
    raise ValueError("side must be 'left' or 'right'")


def act_bisection(g: FiniteGroupoid, a: Bisection, f, side: str) -> np.ndarray:
    """Translation of f by a bisection.

    side='left' gives (af)(x) = f(x . a_at_source(x)); side='right' gives
    (fa)(x) = f(a_with_source_range(x) . x).
    """
    f = arrow_function(g, f)
    picks = np.asarray(a.picks, dtype=int)
    ids = np.arange(g.n_arrows)
    if side == "left":
        moved = g.compose_table[ids, picks[g.source_of]]
    elif side == "right":
        by_source = np.empty(g.n_units, dtype=int)
        by_source[source_permutation(g, a)] = picks
        moved = g.compose_table[by_source[g.range_of], ids]
    else:
        raise ValueError("side must be 'left' or 'right'")
    if np.any(moved == UNDEFINED):
        raise ValueError(f"bisection {a.picks} does not compose with every arrow")
    return f[moved]


def convolution_identity(g: FiniteGroupoid) -> np.ndarray:
    """The exact identity of convolution: 1/w(u) at each unit arrow, 0 elsewhere."""
    e = np.zeros(g.n_arrows, dtype=complex)
    e[g.unit_arrows] = 1.0 / g.weights[g.unit_arrows]
    return e
