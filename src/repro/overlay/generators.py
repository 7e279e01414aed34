"""Overlay topology generators.

The paper (Sec. VI) uses scale-free overlays where the neighbour count
follows a power law ``P(D) ~ D^{-k}`` with shape ``k = 2.5`` and an average
of 20 neighbours.  :func:`scale_free_topology` reproduces exactly that
parameterisation with the configuration model of Newman, Strogatz and
Watts (Phys. Rev. E 64, 026118, 2001): a power-law degree sequence whose
stubs are paired uniformly at random, realised with array operations at
every population size.  Ring and complete overlays are the regular
baselines of the tests and the Dandekar et al. setting.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.overlay.topology import OverlayTopology
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive

__all__ = [
    "powerlaw_degree_sequence",
    "scale_free_topology",
    "ring_topology",
    "complete_topology",
]


def powerlaw_degree_sequence(
    num_peers: int,
    shape: float = 2.5,
    mean_degree: float = 20.0,
    min_degree: int = 2,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Sample a degree sequence with ``P(D) ~ D^{-shape}`` and a target mean degree.

    Degrees are drawn from a discrete bounded Pareto (Zipf-like) distribution
    on ``[min_degree, num_peers - 1]``; the maximum-degree cut-off is then
    tuned by bisection so the realised mean matches ``mean_degree`` closely.
    The sequence sum is forced to be even so a graph realisation exists.

    Parameters
    ----------
    num_peers:
        Number of peers (length of the sequence).
    shape:
        Power-law exponent ``k`` of the paper (default 2.5).
    mean_degree:
        Target average number of neighbours (default 20, as in the paper).
    min_degree:
        Smallest allowed degree (keeps the overlay connected in practice).
    rng, seed:
        Randomness source; ``rng`` takes precedence when both are given.
    """
    if num_peers < 2:
        raise ValueError(f"num_peers must be at least 2, got {num_peers}")
    check_positive(shape, "shape")
    check_positive(mean_degree, "mean_degree")
    if min_degree < 1:
        raise ValueError(f"min_degree must be at least 1, got {min_degree}")
    if mean_degree >= num_peers:
        raise ValueError("mean_degree must be smaller than num_peers")
    if mean_degree < min_degree:
        raise ValueError("mean_degree must be at least min_degree")
    rng = rng if rng is not None else make_rng(seed, "powerlaw-degrees")

    max_degree_cap = num_peers - 1

    def mean_for(lower: float) -> float:
        # Expected degree of the truncated discrete power law starting at `lower`.
        support = np.arange(max(int(round(lower)), 1), max_degree_cap + 1, dtype=float)
        weights = support ** (-shape)
        weights /= weights.sum()
        return float((support * weights).sum())

    # The mean of a power law with fixed exponent is controlled mostly by the
    # lower cut-off; bisect the (possibly fractional) lower cut-off so that a
    # mixture of floor/ceil cut-offs hits the target mean.
    lo, hi = float(min_degree), float(max_degree_cap)
    if mean_for(lo) > mean_degree:
        lower_cut = lo
    elif mean_for(hi) < mean_degree:
        lower_cut = hi
    else:
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if mean_for(mid) < mean_degree:
                lo = mid
            else:
                hi = mid
        lower_cut = (lo + hi) / 2.0

    low_floor = max(int(np.floor(lower_cut)), min_degree)
    low_ceil = min(max(int(np.ceil(lower_cut)), min_degree), max_degree_cap)
    mean_floor = mean_for(low_floor)
    mean_ceil = mean_for(low_ceil)
    if low_floor == low_ceil or mean_ceil == mean_floor:
        mix = 0.0
    else:
        mix = float(np.clip((mean_degree - mean_floor) / (mean_ceil - mean_floor), 0.0, 1.0))

    def sample(lower: int, count: int) -> np.ndarray:
        support = np.arange(lower, max_degree_cap + 1, dtype=float)
        weights = support ** (-shape)
        weights /= weights.sum()
        return rng.choice(support, size=count, p=weights).astype(int)

    use_ceil = rng.random(num_peers) < mix
    degrees = np.empty(num_peers, dtype=int)
    n_ceil = int(use_ceil.sum())
    if n_ceil:
        degrees[use_ceil] = sample(low_ceil, n_ceil)
    if num_peers - n_ceil:
        degrees[~use_ceil] = sample(low_floor, num_peers - n_ceil)

    if degrees.sum() % 2 == 1:
        # Make the total degree even by bumping the smallest entry.
        degrees[int(np.argmin(degrees))] += 1
    return degrees


def scale_free_topology(
    num_peers: int,
    shape: float = 2.5,
    mean_degree: float = 20.0,
    min_degree: int = 2,
    seed: Optional[int] = None,
) -> OverlayTopology:
    """The paper's overlay: a configuration model on power-law degrees (shape 2.5, mean 20).

    The degree sequence comes from :func:`powerlaw_degree_sequence`.  The
    stub multiset (peer ``i`` repeated ``degree[i]`` times) is shuffled
    with one permutation and consecutive stubs are paired into edges,
    loaded in bulk by
    :meth:`~repro.overlay.topology.OverlayTopology.from_edge_arrays`.
    Self-loops and multi-edges are dropped, and every component other
    than the largest is then joined to it by one random edge, so the
    result is always a simple connected overlay.  The same arrays build
    every size, from a dozen peers to a million.
    """
    rng = make_rng(seed, "configuration-model")
    degrees = powerlaw_degree_sequence(
        num_peers, shape=shape, mean_degree=mean_degree, min_degree=min_degree, rng=rng
    )
    stubs = rng.permutation(np.repeat(np.arange(num_peers, dtype=np.int64), degrees))
    topo = OverlayTopology.from_edge_arrays(num_peers, stubs[0::2], stubs[1::2])
    _patch_connectivity(topo, rng)
    return topo


def ring_topology(num_peers: int) -> OverlayTopology:
    """Ring overlay (each peer has exactly two neighbours)."""
    if num_peers < 3:
        raise ValueError("a ring needs at least 3 peers")
    edges = [(i, (i + 1) % num_peers) for i in range(num_peers)]
    return OverlayTopology.from_edges(num_peers, edges)


def complete_topology(num_peers: int) -> OverlayTopology:
    """Complete overlay (every pair of peers connected) — the Dandekar et al. setting."""
    if num_peers < 2:
        raise ValueError("a complete overlay needs at least 2 peers")
    edges = [(i, j) for i in range(num_peers) for j in range(i + 1, num_peers)]
    return OverlayTopology.from_edges(num_peers, edges)


def _patch_connectivity(topo: OverlayTopology, rng: np.random.Generator) -> None:
    """Join every component to the largest one with one random edge each.

    Components come in :meth:`OverlayTopology.connected_components`'s
    canonical order, so the draws do not depend on how sets iterate.
    """
    main, *others = topo.connected_components()
    for component in others:
        source = component[int(rng.integers(len(component)))]
        target = main[int(rng.integers(len(main)))]
        topo.add_edge(source, target)
        main = sorted(main + component)
