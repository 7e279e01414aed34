"""A dense oracle for overlay routing: the N × N matrix of ``P_ij ∝ w_j``."""

import numpy as np

from repro.queueing import RoutingMatrix


def neighbor_routing(topology, weights=None):
    """Routing in which each peer pays neighbour ``j`` in proportion to ``weights[j]``.

    Built from ``topology.edges()`` through
    :meth:`RoutingMatrix.from_purchase_rates`.  Indices, and ``weights``,
    follow ``topology.peers()``; without weights every neighbour is equally
    likely, and a peer without neighbours keeps its credits (a self loop).
    """
    peers = topology.peers()
    index = {peer: i for i, peer in enumerate(peers)}
    w = np.ones(len(peers)) if weights is None else np.asarray(weights, dtype=float)
    rates = np.zeros((len(peers), len(peers)))
    for u, v in topology.edges():
        i, j = index[u], index[v]
        rates[i, j], rates[j, i] = w[j], w[i]
    return RoutingMatrix.from_purchase_rates(rates)
