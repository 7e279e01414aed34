"""The paper's multinomial approximation of the wealth marginal (Eqs. 5–8).

Sec. V-B1 approximates the normalisation constant of the product-form
distribution by dropping the occupancy-dependent multinomial coefficients
(Eq. 5), which yields a *binomial* marginal for each peer's wealth:

    Q{B_i = b}  =  C(M, b) * p_i^b * (1 - p_i)^(M - b),
    p_i = u_i / sum_j u_j                                  (Eq. 6)

and, under symmetric utilization ``u_i = 1`` for all peers (Eqs. 7–8):

    Q{B_i = b}  =  C(M, b) * (1/N)^b * ((N-1)/N)^(M - b).

The approximation corresponds to distributing the ``M`` credits over peers
independently and uniformly at random in proportion to utilization — i.e.
to a *grand-canonical* view of the market — and is what Figs. 2–4 of the
paper are computed from.  The exact closed-network marginal is available in
:class:`repro.queueing.closed.ClosedJacksonNetwork` for comparison
(``test_buzen_marginals_against_eq6`` in ``tests/test_paper_claims.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "multinomial_marginal_pmf",
    "symmetric_marginal_pmf",
    "symmetric_zero_probability",
    "approximate_mean_wealth",
]


def multinomial_marginal_pmf(
    utilizations: Sequence[float], queue: int, total_jobs: int
) -> np.ndarray:
    """The paper's approximate marginal PMF of peer ``queue``'s wealth (Eq. 6).

    Parameters
    ----------
    utilizations:
        The normalized utilization vector ``u`` (any positive scaling works).
    queue:
        Index of the peer whose wealth distribution is returned.
    total_jobs:
        Total credits ``M``.

    Returns
    -------
    numpy.ndarray
        PMF over wealth values ``0..M`` (length ``M + 1``).
    """
    util = np.asarray(utilizations, dtype=float)
    if util.ndim != 1 or util.size == 0:
        raise ValueError("utilizations must be a non-empty one-dimensional sequence")
    if np.any(util <= 0):
        raise ValueError("utilizations must be strictly positive")
    if not 0 <= int(queue) < util.size:
        raise IndexError(f"queue index out of range: {queue}")
    total_jobs = int(total_jobs)
    if total_jobs < 0:
        raise ValueError("total_jobs must be non-negative")
    success = float(util[int(queue)] / util.sum())
    support = np.arange(total_jobs + 1)
    from scipy import stats

    return stats.binom.pmf(support, total_jobs, success)


def symmetric_marginal_pmf(num_queues: int, total_jobs: int) -> np.ndarray:
    """The symmetric-utilization marginal PMF of Eq. (8): Binomial(M, 1/N)."""
    num_queues = int(num_queues)
    total_jobs = int(total_jobs)
    if num_queues < 1:
        raise ValueError("num_queues must be at least 1")
    if total_jobs < 0:
        raise ValueError("total_jobs must be non-negative")
    support = np.arange(total_jobs + 1)
    from scipy import stats

    return stats.binom.pmf(support, total_jobs, 1.0 / num_queues)


def symmetric_zero_probability(num_queues: int, total_jobs: int) -> float:
    """``Q{B_i = 0} = ((N-1)/N)^M`` under symmetric utilization (used in Eq. 9)."""
    num_queues = int(num_queues)
    total_jobs = int(total_jobs)
    if num_queues < 1:
        raise ValueError("num_queues must be at least 1")
    if total_jobs < 0:
        raise ValueError("total_jobs must be non-negative")
    if num_queues == 1:
        return 1.0 if total_jobs == 0 else 0.0
    return float(((num_queues - 1) / num_queues) ** total_jobs)


def approximate_mean_wealth(utilizations: Sequence[float], total_jobs: int) -> np.ndarray:
    """Expected wealth of every peer under the multinomial approximation.

    ``E[B_i] = M * u_i / sum_j u_j`` — a useful sanity check against the
    exact values from Buzen's algorithm.
    """
    util = np.asarray(utilizations, dtype=float)
    if np.any(util <= 0):
        raise ValueError("utilizations must be strictly positive")
    return float(int(total_jobs)) * util / util.sum()
