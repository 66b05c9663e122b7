"""The inputs on which the diagonal scaling of ``gfourier.norms`` stalls,
kept as data with their generator.

Each entry is (n, seed, kind), an n x n real matrix, solved as
``schur_cb_norm(stall_input(n, seed, kind))``:

* ``SCAN``: every input of a scan of n = 2..12, seeds 0-59, on which the
  scaling alone left the bracket open and the solve fell back to the
  interior-point method, before the stall-closing step replaced it (31 of
  1980).  The scan draws, from ``default_rng([n, seed, 7])`` in turn, a
  rank-2 product (kind "rank2"), a Gaussian matrix ("gaussian") and a
  Gaussian matrix with about 70% of its entries zeroed ("sparse").
* ``RANK2``: the rank-2 inputs at n = 24 and n = 48, seeds 0-19, whether
  they stalled or not; at n = 48 seeds 1-3 the interior-point fallback took
  77-87 s.
* ``PAIR4``: the two pair(4) inputs ``default_rng(seed).standard_normal(16)``
  whose scaling ran all 300 evaluations before the fallback, seeds 25 and 90.

``OPEN`` holds the inputs on which the stall-closing step still leaves the
bracket open, solved as ``schur_cb_norm(open_input(n, seed, kind))``: every
such input of a scan of n = 24, 40, 64, seeds 6-15, which draws from
``default_rng([n, seed, 13])`` in turn a complex rank-2 product, a real
rank-3 product, a real matrix with about 90% of its entries zeroed
("sparse10") and a real rank-2 product with about half of its entries
zeroed ("mask"), 3 of 480.
"""

import numpy as np

SCAN = [
    (5, 22, "rank2"), (5, 51, "rank2"), (6, 21, "gaussian"), (6, 41, "rank2"), (6, 51, "rank2"),
    (7, 23, "sparse"), (7, 42, "rank2"), (7, 44, "rank2"), (8, 10, "sparse"), (8, 11, "rank2"),
    (8, 26, "rank2"), (8, 38, "gaussian"), (8, 44, "rank2"), (8, 46, "gaussian"), (8, 54, "gaussian"),
    (9, 17, "sparse"), (9, 36, "rank2"), (10, 7, "rank2"), (10, 12, "rank2"), (10, 13, "rank2"),
    (10, 57, "rank2"), (11, 7, "rank2"), (11, 21, "sparse"), (11, 59, "sparse"), (12, 9, "sparse"),
    (12, 14, "sparse"), (12, 27, "sparse"), (12, 33, "sparse"), (12, 44, "rank2"), (12, 49, "rank2"),
    (12, 58, "rank2"),
]
RANK2 = [(n, seed, "rank2") for n in (24, 48) for seed in range(20)]
PAIR4 = [(4, 25, "pair4"), (4, 90, "pair4")]
STALLS = SCAN + RANK2 + PAIR4
OPEN = [(40, 13, "mask"), (64, 9, "sparse10"), (64, 12, "mask")]


def stall_input(n: int, seed: int, kind: str) -> np.ndarray:
    """The n x n matrix of a corpus entry."""
    if kind == "pair4":
        return np.random.default_rng(seed).standard_normal(16).reshape(4, 4)
    rng = np.random.default_rng([n, seed, 7])
    drawn = {"rank2": rng.standard_normal((n, 2)) @ rng.standard_normal((2, n))}
    drawn["gaussian"] = rng.standard_normal((n, n))
    x = rng.standard_normal((n, n))
    drawn["sparse"] = x * (rng.random((n, n)) < 0.3)
    return drawn[kind]


def open_input(n: int, seed: int, kind: str) -> np.ndarray:
    """The n x n matrix of an ``OPEN`` entry."""
    rng = np.random.default_rng([n, seed, 13])
    for shape in ((n, 2), (n, 2), (2, n), (2, n), (n, 3), (3, n)):  # the complex rank-2 and real rank-3 draws
        rng.standard_normal(shape)
    sparse = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
    if kind == "sparse10":
        return sparse
    return (rng.standard_normal((n, 2)) @ rng.standard_normal((2, n))) * (rng.random((n, n)) < 0.5)
