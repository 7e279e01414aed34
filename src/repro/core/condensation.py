"""Condensation analysis: threshold ``T``, Theorems 2–3 and Eq. (9).

Asymptotic criterion (Sec. V-A).  Let ``u_i`` be the normalized utilizations
of Eq. (2) and ``f(w)`` their limiting density on [0, 1] as the network
grows.  The threshold constant of Eq. (4) is

    T = lim_{z → 1⁻} ∫₀¹ w / (1 − z w) · f(w) dw .

If the average peer wealth ``c = M / N`` satisfies ``c ≤ T`` no peer's
expected wealth diverges (Theorem 2); if ``c > T`` at least one peer's
expected wealth grows without bound (Theorem 3) — wealth condensation.
Under symmetric utilization (all ``u_i`` equal) the threshold is infinite
and condensation never occurs (Corollary).

The mechanism is the same as Bose–Einstein-type condensation in zero-range
processes: in the grand-canonical view each peer's expected wealth is
``z u_i / (1 − z u_i)`` for a fugacity ``z`` chosen so expected wealths sum
to ``M``; once the non-maximal peers saturate (``z → 1``) any additional
wealth has nowhere to go but the maximal-utilization peers.

For *finite* networks this module also solves for the fugacity numerically,
yielding grand-canonical estimates of every peer's expected wealth and of
the bankruptcy probabilities, and implements the content-exchange
efficiency formula of Eq. (9), ``1 − e^{−c}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "condensation_threshold",
    "condensation_threshold_from_density",
    "is_symmetric_utilization",
    "solve_fugacity",
    "grand_canonical_wealth",
    "exchange_efficiency",
    "exact_exchange_efficiency",
    "CondensationReport",
    "diagnose_condensation",
]

DensityFunction = Callable[[float], float]


def _as_utilizations(utilizations: Sequence[float]) -> np.ndarray:
    arr = np.asarray(utilizations, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("utilizations must be a non-empty one-dimensional sequence")
    if np.any(arr <= 0):
        raise ValueError("utilizations must be strictly positive")
    peak = arr.max()
    if peak <= 0:
        raise ValueError("at least one utilization must be positive")
    return arr / peak


def is_symmetric_utilization(utilizations: Sequence[float], rtol: float = 1e-6) -> bool:
    """Whether all normalized utilizations are (numerically) equal (the Corollary case)."""
    arr = _as_utilizations(utilizations)
    return bool(np.allclose(arr, arr[0], rtol=rtol, atol=rtol))


def condensation_threshold(
    utilizations: Sequence[float],
    saturation_tolerance: float = 1e-9,
) -> float:
    """The threshold ``T`` of Eq. (4) from an empirical utilization sample.

    For a finite sample the limit in Eq. (4) is evaluated as the per-peer
    average of ``u_i / (1 − u_i)`` over the *non-maximal* peers: the peers
    with ``u_i = 1`` (within ``saturation_tolerance``) are the candidate
    condensate sites whose capacity is unbounded and therefore excluded from
    the background capacity.  Returns ``inf`` when every peer is maximal
    (symmetric utilization — the Corollary).

    Parameters
    ----------
    utilizations:
        Utilization values ``λ_i / μ_i`` (normalised internally so the
        maximum is 1, per Eq. (2)).
    saturation_tolerance:
        Values above ``1 − saturation_tolerance`` count as maximal.
    """
    arr = _as_utilizations(utilizations)
    background = arr[arr < 1.0 - saturation_tolerance]
    if background.size == 0:
        return math.inf
    contributions = background / (1.0 - background)
    return float(contributions.sum() / arr.size)


def condensation_threshold_from_density(
    density: DensityFunction,
    singular_exponent_probe: float = 1e-6,
) -> float:
    """The threshold ``T`` of Eq. (4) from a continuous utilization density ``f``.

    Numerically evaluates ``∫₀¹ w f(w) / (1 − w) dw``.  The integral is
    improper at ``w = 1``; when ``f(1) > 0`` it diverges and the function
    returns ``inf`` (detected by probing the mass near 1 against the probe
    exponent), otherwise an adaptive quadrature value is returned.

    Parameters
    ----------
    density:
        Probability density of the limiting utilization distribution on
        ``[0, 1]`` (it need not be exactly normalised; Eq. (4) uses it as
        given).
    singular_exponent_probe:
        Width of the neighbourhood of 1 used to decide divergence.
    """
    eps = float(singular_exponent_probe)
    near_one = float(density(1.0 - eps / 2.0))
    if near_one * eps > 0 and near_one > 0:
        # If f stays bounded away from 0 near w=1 the integrand ~ f(1)/(1-w),
        # whose integral diverges logarithmically.
        probe_inner = float(density(1.0 - eps))
        probe_outer = float(density(1.0 - math.sqrt(eps)))
        if min(probe_inner, probe_outer) > 0:
            # Estimate the local exponent alpha in f(w) ≈ C (1-w)^alpha.
            alpha = (math.log(probe_inner) - math.log(probe_outer)) / (
                math.log(eps) - 0.5 * math.log(eps)
            )
            if alpha <= 0.0:
                return math.inf

    def integrand(w: float) -> float:
        if w >= 1.0:
            return 0.0
        return w * float(density(w)) / (1.0 - w)

    from scipy import integrate

    value, _error = integrate.quad(integrand, 0.0, 1.0, points=[1.0 - eps], limit=200)
    if not math.isfinite(value) or value > 1e12:
        return math.inf
    return float(value)


# ---------------------------------------------------------------------- grand-canonical view


def solve_fugacity(utilizations: Sequence[float], total_credits: float) -> float:
    """Solve for the fugacity ``z`` such that ``Σ_i z u_i / (1 − z u_i) = M``.

    Returns a value in ``(0, 1)`` when the constraint can be met with every
    peer's expected wealth finite, and exactly ``1.0`` when it cannot (the
    condensation regime, where the surplus piles on the maximal peers).
    """
    arr = _as_utilizations(utilizations)
    total_credits = float(total_credits)
    if total_credits < 0:
        raise ValueError("total_credits must be non-negative")
    if total_credits == 0:
        return 0.0
    background = arr[arr < 1.0 - 1e-12]
    saturated_count = arr.size - background.size

    def expected_total(z: float) -> float:
        return float(np.sum(z * arr / (1.0 - z * arr + 1e-300)))

    # If even with z arbitrarily close to 1 the background cannot absorb M
    # (and there are saturated sites to absorb the surplus), report z = 1.
    if saturated_count > 0:
        background_capacity = (
            float(np.sum(background / (1.0 - background))) if background.size else 0.0
        )
        if total_credits >= background_capacity + saturated_count * 1e12:
            return 1.0
    upper = 1.0 - 1e-12
    if expected_total(upper) < total_credits:
        return 1.0
    from scipy import optimize

    solution = optimize.brentq(
        lambda z: expected_total(z) - total_credits, 0.0, upper, xtol=1e-14
    )
    return float(solution)


def grand_canonical_wealth(
    utilizations: Sequence[float], total_credits: float
) -> np.ndarray:
    """Grand-canonical estimate of every peer's expected wealth.

    ``E[B_i] ≈ z u_i / (1 − z u_i)`` with the fugacity from
    :func:`solve_fugacity`; in the condensation regime (``z = 1``) the
    background peers take their saturation values and the surplus is split
    evenly among the maximal-utilization peers.
    """
    arr = _as_utilizations(utilizations)
    total_credits = float(total_credits)
    z = solve_fugacity(arr, total_credits)
    if z < 1.0:
        return z * arr / (1.0 - z * arr)
    saturated = arr >= 1.0 - 1e-12
    wealth = np.where(saturated, 0.0, arr / (1.0 - arr + 1e-300))
    surplus = max(0.0, total_credits - float(wealth.sum()))
    count = int(saturated.sum())
    if count > 0:
        wealth = wealth + saturated.astype(float) * (surplus / count)
    return wealth


# ---------------------------------------------------------------------- efficiency (Eq. 9)


def exchange_efficiency(average_wealth: float) -> float:
    """Large-network content-exchange efficiency ``1 − e^{−c}`` of Eq. (9).

    This is the fraction of its maximum spending rate a peer actually
    achieves once bankruptcies are accounted for; multiplying by ``μ_i``
    gives the actual credit departure (and hence download) rate.
    """
    average_wealth = float(average_wealth)
    if average_wealth < 0:
        raise ValueError("average_wealth must be non-negative")
    return 1.0 - math.exp(-average_wealth)


def exact_exchange_efficiency(num_peers: int, total_credits: int) -> float:
    """Finite-N version of Eq. (9): ``1 − ((N−1)/N)^M`` under symmetric utilization."""
    num_peers = int(num_peers)
    total_credits = int(total_credits)
    if num_peers < 1:
        raise ValueError("num_peers must be at least 1")
    if total_credits < 0:
        raise ValueError("total_credits must be non-negative")
    if num_peers == 1:
        return 0.0 if total_credits == 0 else 1.0
    return 1.0 - ((num_peers - 1) / num_peers) ** total_credits


# ---------------------------------------------------------------------- diagnosis


@dataclass(frozen=True)
class CondensationReport:
    """Outcome of :func:`diagnose_condensation`.

    Attributes
    ----------
    threshold:
        The condensation threshold ``T`` of Eq. (4) (``inf`` for symmetric
        utilization).
    average_wealth:
        The average wealth ``c`` the report was evaluated at.
    condenses:
        True when ``c > T`` — Theorem 3 predicts condensation.
    symmetric:
        True when the utilization vector is symmetric (the Corollary case).
    fugacity:
        The grand-canonical fugacity ``z`` (1.0 in the condensation regime).
    condensate_peers:
        Indices of the maximal-utilization peers onto which surplus wealth
        condenses when ``condenses`` is True.
    expected_wealth:
        Grand-canonical estimate of every peer's expected wealth.
    """

    threshold: float
    average_wealth: float
    condenses: bool
    symmetric: bool
    fugacity: float
    condensate_peers: tuple
    expected_wealth: np.ndarray


def diagnose_condensation(
    utilizations: Sequence[float],
    average_wealth: float,
    num_peers: Optional[int] = None,
) -> CondensationReport:
    """Full condensation diagnosis for a utilization profile and average wealth ``c``.

    Parameters
    ----------
    utilizations:
        Utilization values (normalised internally).
    average_wealth:
        Average credits per peer ``c``.
    num_peers:
        Population used to convert ``c`` to total credits for the fugacity
        solve; defaults to ``len(utilizations)``.
    """
    arr = _as_utilizations(utilizations)
    average_wealth = float(average_wealth)
    if average_wealth < 0:
        raise ValueError("average_wealth must be non-negative")
    n = int(num_peers) if num_peers is not None else arr.size
    threshold = condensation_threshold(arr)
    symmetric = is_symmetric_utilization(arr)
    total = average_wealth * n
    fugacity = solve_fugacity(arr, total)
    wealth = grand_canonical_wealth(arr, total)
    condensate = tuple(int(i) for i in np.flatnonzero(arr >= 1.0 - 1e-12))
    condenses = (not symmetric) and (average_wealth > threshold)
    return CondensationReport(
        threshold=threshold,
        average_wealth=average_wealth,
        condenses=condenses,
        symmetric=symmetric,
        fugacity=fugacity,
        condensate_peers=condensate,
        expected_wealth=wealth,
    )
