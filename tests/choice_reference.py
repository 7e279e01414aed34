"""The membership tracker's former sampler, kept as a reference law.

Before the tracker drew from weight tables it scanned the overlay at
every draw and picked neighbours with an exact copy of
``Generator.choice(replace=False, p)``'s algorithm.  That copy,
:func:`weighted_positions`, and a tracker that draws with it,
:class:`ReferenceTracker`, let tests compare the tracker's law against
``choice``'s on the same churned overlays.
"""

from typing import List, Optional

import numpy as np

from repro.overlay import MembershipTracker


def weighted_positions(
    rng: np.random.Generator, weights: np.ndarray, total: float, skip: int, count: int
) -> np.ndarray:
    """Positions ``rng.choice(weights.size, count, replace=False, p=weights / total)`` draws.

    A copy of that call's algorithm, draw for draw: each round draws
    one uniform per missing pick, zeroes the weight of every pick so
    far, inverts the normalised prefix sums and keeps the first
    occurrence of each new position, in draw order.  Position ``skip``
    (ignored when negative) gets weight 0 and ``total`` must exclude it:
    a zero leaves every prefix sum bit-identical and can never be drawn,
    so the picks equal those of ``choice`` over the other positions.
    """
    p = weights / total
    if skip >= 0:
        p[skip] = 0.0
    found: List[int] = []
    while len(found) < count:
        uniforms = rng.random(count - len(found))
        if found:
            p[found] = 0.0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        found.extend(dict.fromkeys(cdf.searchsorted(uniforms, side="right").tolist()))
    return np.array(found, dtype=np.int64)


class ReferenceTracker(MembershipTracker):
    """A tracker whose every draw scans the overlay and samples like ``choice``."""

    def select_neighbors(self, exclude: int, count: Optional[int] = None) -> List[int]:
        count = self.target_degree if count is None else int(count)
        ids, degrees = self.topology.peer_degrees()
        weights = degrees + 1.0
        total = float(weights.sum())
        skip = int(np.searchsorted(ids, exclude))
        if skip < ids.size and ids[skip] == exclude:
            total -= weights[skip]
        else:
            skip = -1
        count = min(count, ids.size - (skip >= 0))
        if count <= 0:
            return []
        return ids[weighted_positions(self._rng, weights, total, skip, count)].tolist()
