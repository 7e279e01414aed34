"""The credit transfer probability matrix ``P`` (routing matrix).

``P[i, j]`` is the fraction of peer *i*'s credit expenditure that flows to
neighbour *j* — equivalently, the probability that a job finishing service
at queue *i* routes to queue *j* (Table I of the paper).  Rows sum to one;
``P[i, i] > 0`` models a peer reserving a fraction of its credits from
trading (Sec. III-B2).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.validation import check_fraction, check_stochastic_matrix

__all__ = ["RoutingMatrix"]


class RoutingMatrix:
    """A row-stochastic credit routing matrix over ``n`` peers.

    Construct directly from an array, from purchase rates, or at random.
    """

    def __init__(self, matrix: Sequence[Sequence[float]]) -> None:
        self._matrix = check_stochastic_matrix(matrix, "routing matrix")

    # ------------------------------------------------------------------ basic accessors

    @property
    def matrix(self) -> np.ndarray:
        """The underlying (copy-safe) row-stochastic ndarray."""
        return self._matrix.copy()

    @property
    def size(self) -> int:
        """Number of peers/queues."""
        return self._matrix.shape[0]

    def probability(self, source: int, target: int) -> float:
        """Return ``P[source, target]``."""
        return float(self._matrix[source, target])

    def row(self, source: int) -> np.ndarray:
        """Return the routing distribution out of ``source``."""
        return self._matrix[source].copy()

    def self_loop_fractions(self) -> np.ndarray:
        """The diagonal of ``P`` — the credit fraction each peer reserves."""
        return np.diag(self._matrix).copy()

    def is_irreducible(self) -> bool:
        """Whether the routing chain is irreducible (single communicating class).

        Irreducibility guarantees a *unique* (up to scale) positive solution
        of the traffic equations; Lemma 1 itself needs only non-negativity
        and row sums of one.
        """
        n = self.size
        reachable = np.eye(n, dtype=bool)
        adjacency = self._matrix > 0
        frontier = adjacency.copy()
        for _ in range(n):
            new = reachable | (reachable @ frontier)
            if np.array_equal(new, reachable):
                break
            reachable = new
        return bool(reachable.all())

    def __repr__(self) -> str:
        return f"RoutingMatrix(size={self.size})"

    # ------------------------------------------------------------------ constructors

    @classmethod
    def from_purchase_rates(
        cls,
        purchase_rates: Sequence[Sequence[float]],
    ) -> "RoutingMatrix":
        """Build ``P`` from raw purchase (credit expenditure) rates.

        ``purchase_rates[i][j]`` is the rate at which peer *i* pays credits
        to peer *j* (``r_ji * s_j`` in the notation of Sec. V-C).  Each row is
        normalised; all-zero rows become a self loop.
        """
        rates = np.asarray(purchase_rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise ValueError("purchase_rates must be a square matrix")
        if np.any(rates < 0):
            raise ValueError("purchase_rates must be non-negative")
        n = rates.shape[0]
        matrix = np.zeros((n, n))
        for i in range(n):
            total = rates[i].sum()
            if total <= 0:
                matrix[i, i] = 1.0
            else:
                matrix[i] = rates[i] / total
        return cls(matrix)

    @classmethod
    def random_stochastic(
        cls,
        size: int,
        density: float = 1.0,
        reserve_fraction: float = 0.0,
        seed: Optional[int] = None,
    ) -> "RoutingMatrix":
        """A random row-stochastic matrix (for property tests and stress experiments).

        Parameters
        ----------
        size:
            Number of peers.
        density:
            Expected fraction of non-zero off-diagonal entries per row.
        reserve_fraction:
            Self-loop probability applied to every row.
        seed:
            RNG seed.
        """
        if size < 1:
            raise ValueError("size must be at least 1")
        density = check_fraction(density, "density")
        reserve = check_fraction(reserve_fraction, "reserve_fraction")
        rng = make_rng(seed, "random-stochastic")
        matrix = np.zeros((size, size))
        for i in range(size):
            mask = rng.random(size) < density
            mask[i] = False
            if not mask.any():
                # guarantee at least one outgoing edge (to a random other peer, if any)
                if size > 1:
                    j = int(rng.integers(size - 1))
                    j = j if j < i else j + 1
                    mask[j] = True
            raw = rng.random(size) * mask
            total = raw.sum()
            if total <= 0:
                matrix[i, i] = 1.0
                continue
            matrix[i] = raw / total * (1.0 - reserve)
            matrix[i, i] += reserve
        return cls(matrix)

    # ------------------------------------------------------------------ derived matrices

    def with_reserve_fraction(self, reserve_fraction: float) -> "RoutingMatrix":
        """Return a copy whose off-diagonal mass is scaled to make room for ``p_ii``."""
        reserve = check_fraction(reserve_fraction, "reserve_fraction")
        matrix = self._matrix.copy()
        n = self.size
        for i in range(n):
            off_diag = matrix[i].sum() - matrix[i, i]
            if off_diag <= 0:
                matrix[i] = 0.0
                matrix[i, i] = 1.0
                continue
            scale = (1.0 - reserve) / off_diag
            matrix[i] *= scale
            matrix[i, i] = reserve
        return RoutingMatrix(matrix)

    def restricted_to(self, indices: Sequence[int]) -> "RoutingMatrix":
        """Return the routing matrix restricted to ``indices`` (rows renormalised)."""
        idx = list(indices)
        sub = self._matrix[np.ix_(idx, idx)]
        n = len(idx)
        matrix = np.zeros((n, n))
        for i in range(n):
            total = sub[i].sum()
            if total <= 0:
                matrix[i, i] = 1.0
            else:
                matrix[i] = sub[i] / total
        return RoutingMatrix(matrix)

    def to_dict(self) -> Dict[str, object]:
        """Serialisable representation (size + nested list)."""
        return {"size": self.size, "matrix": self._matrix.tolist()}
