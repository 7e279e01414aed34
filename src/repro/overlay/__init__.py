"""P2P overlay substrate: topologies, membership and churn.

The paper's simulations use scale-free overlays (power-law degree
distribution with shape parameter 2.5 and mean degree 20) for a population
of 500–1000 peers, plus dynamic overlays with Poisson arrivals and
exponential lifespans (Sec. VI).  This package provides:

* :class:`~repro.overlay.topology.OverlayTopology` — the one adjacency:
  id-indexed arrays whose neighbour lists are segments of a shared edge
  buffer, edited in place by joins and leaves,
* :func:`~repro.overlay.generators.scale_free_topology` — the paper's
  configuration-model overlay, built by array stub pairing at every
  size — plus ring and complete baselines,
* :class:`~repro.overlay.membership.MembershipTracker` — a tracker-style
  membership service handing bootstrap neighbours to joining peers,
* :class:`~repro.overlay.churn.ChurnConfig` — Poisson arrival /
  exponential lifetime churn parameters for an open (dynamic) overlay.
"""

from repro.overlay.topology import OverlayTopology
from repro.overlay.generators import complete_topology, ring_topology, scale_free_topology
from repro.overlay.membership import MembershipTracker
from repro.overlay.churn import ChurnConfig

__all__ = [
    "OverlayTopology",
    "scale_free_topology",
    "ring_topology",
    "complete_topology",
    "MembershipTracker",
    "ChurnConfig",
]
