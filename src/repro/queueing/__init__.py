"""Jackson queueing-network analytics.

This package implements the analytical machinery of Secs. III–V of the
paper:

* :class:`~repro.queueing.routing.RoutingMatrix` — the credit transfer
  probability matrix ``P`` (row-stochastic), with constructors from overlay
  topologies and trading preferences;
* :mod:`~repro.queueing.traffic` — the traffic equations ``λP = λ``
  (Lemma 1: a positive solution always exists, by Perron–Frobenius);
* :class:`~repro.queueing.closed.ClosedJacksonNetwork` — product-form
  equilibrium of a closed network (Eq. 3), exact normalisation constant via
  Buzen's convolution algorithm, exact marginal queue-length distributions
  and moments, and exact Gini/Lorenz statistics of the wealth distribution;
* :mod:`~repro.queueing.approximations` — the paper's multinomial
  approximation of the marginal PMF (Eqs. 5–8) used in Figs. 2–4;
* :class:`~repro.queueing.open_network.OpenJacksonNetwork` — open Jackson
  networks used for the churn discussion (Sec. VI-E);
* :mod:`~repro.queueing.mva` — exact mean value analysis as an independent
  cross-check of the convolution results.
"""

from repro.queueing.routing import RoutingMatrix
from repro.queueing.traffic import (
    TrafficSolution,
    solve_traffic_equations,
    spectral_radius,
    stationary_distribution,
)
from repro.queueing.closed import ClosedJacksonNetwork
from repro.queueing.open_network import OpenJacksonNetwork, OpenQueueResult
from repro.queueing.approximations import (
    multinomial_marginal_pmf,
    symmetric_marginal_pmf,
    symmetric_zero_probability,
)
from repro.queueing.mva import mva_mean_queue_lengths, mva_throughputs

__all__ = [
    "RoutingMatrix",
    "TrafficSolution",
    "solve_traffic_equations",
    "stationary_distribution",
    "spectral_radius",
    "ClosedJacksonNetwork",
    "OpenJacksonNetwork",
    "OpenQueueResult",
    "multinomial_marginal_pmf",
    "symmetric_marginal_pmf",
    "symmetric_zero_probability",
    "mva_mean_queue_lengths",
    "mva_throughputs",
]
