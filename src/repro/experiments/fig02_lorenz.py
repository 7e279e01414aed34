"""Fig. 2 — Lorenz curves of the equilibrium wealth marginal (Eq. 8).

The paper plots Lorenz curves of the marginal wealth PMF for three
(``M``, ``N``) combinations — (2000, 100), (25000, 50) and (50000, 50) —
and reads off that larger average wealth ``c = M / N`` yields a more skewed
distribution.

Two marginals are reported for each combination:

* ``eq8`` — the paper's multinomial approximation (Eq. 8), which is a
  Binomial(M, 1/N) distribution;
* ``exact`` — the exact closed-Jackson-network marginal under symmetric
  utilization (a Bose–Einstein occupancy distribution), computed in closed
  form.

The two disagree markedly: the binomial approximation concentrates around
the mean and its Gini *shrinks* toward 0 as ``c`` grows, while the exact
marginal stays broad (it approaches an exponential distribution whose Gini
is 0.5 regardless of ``c``).  The substantial skewness the paper's figure
shows therefore comes from the exact product-form equilibrium rather than
from Eq. (8) as literally written; the further *increase* of skewness with
``c`` that the paper reports requires heterogeneous utilizations and is
reproduced in Fig. 3.  Both marginals are returned so the discrepancy is
visible; EXPERIMENTS.md discusses it.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import gini_from_pmf, lorenz_curve_from_pmf
from repro.experiments.common import ExperimentResult, Scale, scale_parameters
from repro.queueing.approximations import symmetric_marginal_pmf
from repro.utils.records import ResultTable, SeriesRecord

__all__ = ["run", "run_point", "exact_symmetric_marginal_pmf"]

EXPERIMENT_ID = "fig2"
TITLE = "Fig. 2 — Lorenz curves of the equilibrium wealth marginal (Eq. 8 vs exact)"

#: Parameters `run_point` accepts as sweep axes.
SWEEP_PARAMS = ("total_credits", "num_peers")


def _combination_outcome(total_jobs: int, num_peers: int):
    """Lorenz series and Gini row for one ``(M, N)`` combination."""
    label = f"M={total_jobs}, N={num_peers}"
    approx = symmetric_marginal_pmf(num_peers, total_jobs)
    exact = exact_symmetric_marginal_pmf(num_peers, total_jobs)
    series = []
    for kind, pmf in (("eq8", approx), ("exact", exact)):
        population, wealth = lorenz_curve_from_pmf(pmf)
        curve = SeriesRecord(label=f"{label} ({kind})")
        step = max(1, len(population) // 200)
        for x, y in zip(population[::step], wealth[::step]):
            curve.append(float(x), float(y))
        curve.append(float(population[-1]), float(wealth[-1]))
        series.append(curve)
    row = dict(
        combination=label,
        total_credits_M=total_jobs,
        num_peers_N=num_peers,
        average_wealth_c=total_jobs / num_peers,
        gini_eq8=gini_from_pmf(approx),
        gini_exact=gini_from_pmf(exact),
    )
    return series, row


def run_point(
    scale: str = Scale.DEFAULT,
    seed: int = 0,
    total_credits: int = 2000,
    num_peers: int = 100,
) -> ExperimentResult:
    """Evaluate a single ``(M, N)`` combination of Fig. 2 as a sweep shard.

    The computation is fully analytic (no RNG); ``seed`` is accepted for
    interface uniformity only, so replications of a point are identical.
    """
    total_credits = int(round(float(total_credits)))
    num_peers = int(num_peers)
    metadata = dict(
        scale=str(scale), seed=seed, total_credits=total_credits, num_peers=num_peers
    )
    series, row = _combination_outcome(total_credits, num_peers)
    table = ResultTable(title=TITLE, metadata=metadata)
    table.add_row(**row)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        series=series,
        metadata=metadata,
    )


def exact_symmetric_marginal_pmf(num_peers: int, total_jobs: int) -> np.ndarray:
    """Exact marginal wealth PMF of a symmetric closed Jackson network.

    With all utilizations equal, the product-form joint distribution is
    uniform over the compositions of ``M`` jobs into ``N`` queues, so

        P(B_i = b) = C(M - b + N - 2, N - 2) / C(M + N - 1, N - 1),

    the Bose–Einstein occupancy law.  Computed in log space for large M.
    """
    num_peers = int(num_peers)
    total_jobs = int(total_jobs)
    if num_peers < 2:
        raise ValueError("num_peers must be at least 2 for the marginal to be non-trivial")
    if total_jobs < 0:
        raise ValueError("total_jobs must be non-negative")
    support = np.arange(total_jobs + 1)
    from scipy import special

    log_num = special.gammaln(total_jobs - support + num_peers - 1) - (
        special.gammaln(total_jobs - support + 1) + special.gammaln(num_peers - 1)
    )
    log_den = special.gammaln(total_jobs + num_peers) - (
        special.gammaln(total_jobs + 1) + special.gammaln(num_peers)
    )
    pmf = np.exp(log_num - log_den)
    pmf = np.clip(pmf, 0.0, None)
    return pmf / pmf.sum()


def run(scale: str = Scale.DEFAULT, seed: int = 0) -> ExperimentResult:
    """Compute Lorenz curves and Gini indices for the paper's three (M, N) settings."""
    params = scale_parameters(
        scale,
        smoke=dict(combinations=[(200, 20), (1000, 10)]),
        default=dict(combinations=[(2000, 100), (25000, 50), (50000, 50)]),
        paper=dict(combinations=[(2000, 100), (25000, 50), (50000, 50)]),
    )

    table = ResultTable(title=TITLE, metadata=dict(scale=str(scale)))
    series = []
    for total_jobs, num_peers in params["combinations"]:
        combo_series, row = _combination_outcome(total_jobs, num_peers)
        series.extend(combo_series)
        table.add_row(**row)

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        series=series,
        metadata=dict(scale=str(scale)),
    )
