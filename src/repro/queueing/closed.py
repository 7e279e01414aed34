"""Closed Jackson networks: product-form equilibrium and exact statistics.

A closed Jackson network with ``N`` single-server queues and ``M``
circulating jobs models the paper's credit market (Table I): ``M`` is the
total amount of credits, a queue's length ``B_i`` is peer *i*'s wealth, and
the product-form equilibrium (Eq. 3)

    Q{B_1 = b_1, ..., B_N = b_N} = (1 / Z_M) * prod_i u_i^{b_i}

is fully characterised by the normalized utilizations ``u_i`` and the
normalisation constant ``Z_M`` (the partition function ``G(M)``).

This module computes ``G`` with Buzen's convolution algorithm in log space
(so networks with tens of thousands of credits neither overflow nor
underflow), from which exact marginal queue-length distributions, means,
idle probabilities, throughputs and Lorenz/Gini statistics of the expected
wealth profile follow.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.queueing.routing import RoutingMatrix
from repro.queueing.traffic import normalized_utilizations, solve_traffic_equations

__all__ = ["ClosedJacksonNetwork"]


def _log_diff_exp(log_a: float, log_b: float) -> float:
    """Return ``log(exp(log_a) - exp(log_b))`` assuming ``log_a >= log_b``."""
    if log_b == -np.inf:
        return log_a
    delta = log_b - log_a
    if delta >= 0.0:
        # Equal (or numerically crossed): the difference is ~0.
        return -np.inf
    return log_a + np.log1p(-np.exp(delta))


class ClosedJacksonNetwork:
    """A closed Jackson queueing network (single-server queues, M circulating jobs).

    Parameters
    ----------
    utilizations:
        Relative utilizations of the queues.  Any positive scaling works
        because the product-form distribution only depends on ratios; the
        constructor renormalises so the maximum is 1 (Eq. 2 of the paper).
    total_jobs:
        Number of circulating jobs ``M`` (total credits in the market).

    Examples
    --------
    >>> network = ClosedJacksonNetwork([1.0, 1.0], total_jobs=3)
    >>> [round(p, 4) for p in network.marginal_pmf(0)]
    [0.25, 0.25, 0.25, 0.25]
    """

    def __init__(self, utilizations: Sequence[float], total_jobs: int) -> None:
        util = np.asarray(utilizations, dtype=float)
        if util.ndim != 1 or util.size == 0:
            raise ValueError("utilizations must be a non-empty one-dimensional sequence")
        if np.any(util <= 0):
            raise ValueError("utilizations must be strictly positive")
        if int(total_jobs) < 0:
            raise ValueError("total_jobs must be non-negative")
        self._u = util / util.max()
        self._m = int(total_jobs)
        self._log_g = self._buzen_log_partition(self._u, self._m)

    # ------------------------------------------------------------------ constructors

    @classmethod
    def from_rates(
        cls,
        arrival_rates: Sequence[float],
        service_rates: Sequence[float],
        total_jobs: int,
    ) -> "ClosedJacksonNetwork":
        """Build the network from arrival (earning) and service (spending) rates."""
        util = normalized_utilizations(arrival_rates, service_rates)
        util = np.clip(util, 1e-300, None)  # guard against exactly-zero arrival rates
        return cls(util, total_jobs)

    @classmethod
    def from_routing(
        cls,
        routing: Union[RoutingMatrix, Sequence[Sequence[float]]],
        service_rates: Sequence[float],
        total_jobs: int,
    ) -> "ClosedJacksonNetwork":
        """Build the network by solving the traffic equations on ``routing`` first."""
        solution = solve_traffic_equations(routing)
        return cls.from_rates(solution.arrival_rates, service_rates, total_jobs)

    # ------------------------------------------------------------------ basic accessors

    @property
    def num_queues(self) -> int:
        """Number of queues (peers) ``N``."""
        return int(self._u.size)

    @property
    def total_jobs(self) -> int:
        """Number of circulating jobs (total credits) ``M``."""
        return self._m

    @property
    def utilizations(self) -> np.ndarray:
        """Normalized utilization vector ``u`` (max entry equals 1)."""
        return self._u.copy()

    @property
    def average_wealth(self) -> float:
        """Average jobs per queue ``c = M / N``."""
        return self._m / self.num_queues

    @property
    def log_partition_function(self) -> float:
        """``log G(M)`` — the log normalisation constant ``Z_M`` of Eq. (3)."""
        return float(self._log_g[self._m])

    def log_partition_at(self, jobs: int) -> float:
        """``log G(m)`` for any population ``m`` between 0 and M."""
        jobs = int(jobs)
        if jobs < 0:
            return -np.inf
        if jobs > self._m:
            raise ValueError(f"jobs must be at most {self._m}, got {jobs}")
        return float(self._log_g[jobs])

    # ------------------------------------------------------------------ partition function

    @staticmethod
    def _buzen_log_partition(utilizations: np.ndarray, total_jobs: int) -> np.ndarray:
        """Buzen's convolution algorithm in log space.

        Returns the array ``log G(0..M)`` for the full network.
        """
        log_u = np.log(utilizations)
        log_g = np.full(total_jobs + 1, -np.inf)
        log_g[0] = 0.0
        for log_ui in log_u:
            for m in range(1, total_jobs + 1):
                log_g[m] = np.logaddexp(log_g[m], log_ui + log_g[m - 1])
        return log_g

    # ------------------------------------------------------------------ joint distribution

    def log_joint_probability(self, occupancy: Sequence[int]) -> float:
        """``log Q{B_1 = b_1, ..., B_N = b_N}`` for a full occupancy vector (Eq. 3)."""
        occ = np.asarray(occupancy, dtype=int)
        if occ.size != self.num_queues:
            raise ValueError(f"occupancy must have length {self.num_queues}")
        if np.any(occ < 0):
            raise ValueError("occupancies must be non-negative")
        if occ.sum() != self._m:
            return -np.inf
        return float(np.sum(occ * np.log(self._u)) - self._log_g[self._m])

    def joint_probability(self, occupancy: Sequence[int]) -> float:
        """``Q{B_1 = b_1, ..., B_N = b_N}`` (Eq. 3); zero if the occupancies don't sum to M."""
        return float(np.exp(self.log_joint_probability(occupancy)))

    # ------------------------------------------------------------------ marginals

    def tail_probability(self, queue: int, threshold: int) -> float:
        """``P(B_queue >= threshold)`` — exact, via ``u_i^k G(M-k) / G(M)``."""
        threshold = int(threshold)
        if threshold <= 0:
            return 1.0
        if threshold > self._m:
            return 0.0
        log_u = np.log(self._u[queue])
        log_tail = threshold * log_u + self._log_g[self._m - threshold] - self._log_g[self._m]
        return float(np.exp(min(log_tail, 0.0)))

    def marginal_pmf(self, queue: int) -> np.ndarray:
        """Exact marginal distribution ``P(B_queue = k)`` for ``k = 0..M``."""
        queue = int(queue)
        if not 0 <= queue < self.num_queues:
            raise IndexError(f"queue index out of range: {queue}")
        log_u = np.log(self._u[queue])
        pmf = np.zeros(self._m + 1)
        for k in range(self._m + 1):
            log_high = self._log_g[self._m - k]
            log_low = log_u + self._log_g[self._m - k - 1] if k < self._m else -np.inf
            log_term = _log_diff_exp(log_high, log_low)
            if log_term == -np.inf:
                pmf[k] = 0.0
            else:
                pmf[k] = np.exp(k * log_u + log_term - self._log_g[self._m])
        # Numerical cleanup: clip tiny negatives and renormalise.
        pmf = np.clip(pmf, 0.0, None)
        total = pmf.sum()
        if total > 0:
            pmf /= total
        return pmf

    def idle_probability(self, queue: int) -> float:
        """``P(B_queue = 0)`` — the bankruptcy probability of the peer."""
        return 1.0 - self.tail_probability(queue, 1)

    def idle_probabilities(self) -> np.ndarray:
        """Bankruptcy probabilities of every queue."""
        return np.array([self.idle_probability(i) for i in range(self.num_queues)])

    def mean_queue_length(self, queue: int) -> float:
        """``E[B_queue]`` — expected wealth of the peer, via the tail-sum formula."""
        queue = int(queue)
        log_u = np.log(self._u[queue])
        log_terms = np.array(
            [
                k * log_u + self._log_g[self._m - k] - self._log_g[self._m]
                for k in range(1, self._m + 1)
            ]
        )
        if log_terms.size == 0:
            return 0.0
        peak = log_terms.max()
        return float(np.exp(peak) * np.sum(np.exp(log_terms - peak)))

    def mean_queue_lengths(self) -> np.ndarray:
        """Expected wealth of every peer; the entries sum to M."""
        return np.array([self.mean_queue_length(i) for i in range(self.num_queues)])

    def queue_length_variance(self, queue: int) -> float:
        """Variance of ``B_queue`` (computed from the exact marginal PMF)."""
        pmf = self.marginal_pmf(queue)
        support = np.arange(self._m + 1)
        mean = float((support * pmf).sum())
        second = float((support**2 * pmf).sum())
        return max(0.0, second - mean * mean)

    # ------------------------------------------------------------------ throughput / activity

    def relative_throughput(self, queue: int) -> float:
        """Effective service completion rate of the queue, relative to ``μ_i``.

        This is ``P(B_queue > 0)`` — the fraction of time the peer is able
        to spend credits; multiplying by the peer's ``μ_i`` gives the actual
        credit departure rate of Eq. (9).
        """
        return self.tail_probability(queue, 1)

    def relative_throughputs(self) -> np.ndarray:
        """``P(B_i > 0)`` for every queue."""
        return np.array([self.relative_throughput(i) for i in range(self.num_queues)])

    # ------------------------------------------------------------------ inequality of expected wealth

    def expected_wealth_gini(self) -> float:
        """Gini index of the vector of expected wealths ``E[B_i]``.

        This measures the *systematic* skew created by heterogeneous
        utilizations; the Gini of a random wealth sample also includes
        stochastic spread and is computed in :mod:`repro.core.metrics`.
        """
        from repro.core.metrics import gini_index  # local import to avoid a cycle

        return gini_index(self.mean_queue_lengths())

    def sample_occupancy(
        self, rng: Optional[np.random.Generator] = None, num_samples: int = 1
    ) -> np.ndarray:
        """Draw occupancy vectors from the product-form equilibrium (Eq. 3).

        Sampling uses the sequential conditional decomposition over the
        suffix partition functions ``G_k(m)`` of queues ``k..N-1``, built
        once per call: with ``r`` jobs left for queues ``k..N-1``, queue
        ``k`` holds ``j`` of them with probability
        ``u_k^j G_{k+1}(r - j) / G_k(r)``.  The returned array has shape
        ``(num_samples, N)`` and every row sums to ``M``.
        """
        rng = rng if rng is not None else np.random.default_rng()
        log_u = np.log(self._u)
        jobs = np.arange(self._m + 1)
        # suffix[k, m] = log G_k(m); G_k(m) = sum_j u_k^j G_{k+1}(m - j), a
        # running log-sum once u_k^m is factored out.
        suffix = np.full((self.num_queues + 1, self._m + 1), -np.inf)
        suffix[-1, 0] = 0.0
        for queue in range(self.num_queues - 1, -1, -1):
            tilt = jobs * log_u[queue]
            suffix[queue] = tilt + np.logaddexp.accumulate(suffix[queue + 1] - tilt)
        samples = np.zeros((int(num_samples), self.num_queues), dtype=int)
        for row in samples:
            remaining = self._m
            for queue in range(self.num_queues):
                if remaining == 0:
                    break
                log_weights = jobs[: remaining + 1] * log_u[queue]
                log_weights += suffix[queue + 1, remaining::-1]
                weights = np.exp(log_weights - log_weights.max())
                row[queue] = rng.choice(remaining + 1, p=weights / weights.sum())
                remaining -= row[queue]
        return samples

    def __repr__(self) -> str:
        return (
            f"ClosedJacksonNetwork(num_queues={self.num_queues}, "
            f"total_jobs={self.total_jobs})"
        )
