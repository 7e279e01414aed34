"""Figs. 7 and 8 — evolution of the Gini index for different average wealths.

Sec. VI-B of the paper tracks the Gini index of the credit distribution
over time for average wealths ``c ∈ {50, 100, 200}``:

* Fig. 7 — symmetric utilization (``ū = {1, ..., 1}``): the Gini index
  always converges regardless of the initial credit amount;
* Fig. 8 — asymmetric utilization: the Gini also converges, and the larger
  ``c`` is, the larger the stabilized Gini index.

Both figures share a runner parameterised by the utilization mode.  The
returned series are the Gini-index trajectories (one per ``c``); the table
reports the stabilized Gini, a convergence flag and the bankrupt fraction.

Reproduction notes:

* A market whose utilizations are *exactly* symmetric converges to the
  Bose–Einstein equilibrium whose Gini is ≈ 0.5 for every ``c``, so the
  visible ordering by ``c`` in the paper's Fig. 7 requires the small
  utilization heterogeneity that a real protocol inevitably realises.  The
  Fig. 7 runner therefore applies a 5% realised spending-rate noise on top
  of the symmetric configuration (``spending_rate_noise=0.05``); Fig. 8
  uses the fully heterogeneous (asymmetric) configuration with no extra
  noise.  EXPERIMENTS.md discusses the sensitivity.
* The time to reach the equilibrium grows with ``c`` (the wealth profile
  has to spread/condense over a range proportional to ``c``), so at the
  ``default`` scale the horizon of each run scales linearly with ``c``
  (the paper instead uses one long 40000 s horizon for all three curves).
"""

from __future__ import annotations

from repro.core.metrics import bankruptcy_fraction
from repro.experiments.common import ExperimentResult, Scale, scale_parameters
from repro.p2psim.config import MarketSimConfig, UtilizationMode
from repro.p2psim.market_sim import CreditMarketSimulator
from repro.utils.records import ResultTable

__all__ = [
    "run_symmetric",
    "run_asymmetric",
    "run_gini_evolution",
    "run_point_symmetric",
    "run_point_asymmetric",
]

TITLE_SYMMETRIC = "Fig. 7 — Gini evolution, symmetric utilization"
TITLE_ASYMMETRIC = "Fig. 8 — Gini evolution, asymmetric utilization"

#: Parameters the `run_point_*` runners accept as sweep axes.
SWEEP_PARAMS = ("average_wealth", "num_peers", "horizon")


def _scale_params(scale: str) -> dict:
    return scale_parameters(
        scale,
        smoke=dict(
            num_peers=60, horizon_per_wealth=12.0, min_horizon=300.0, step=2.0,
            wealth_levels=[10, 30],
        ),
        default=dict(
            num_peers=200, horizon_per_wealth=60.0, min_horizon=3000.0, step=2.0,
            wealth_levels=[50, 100, 200],
        ),
        paper=dict(
            num_peers=1000, horizon_per_wealth=200.0, min_horizon=40000.0, step=1.0,
            wealth_levels=[50, 100, 200],
        ),
    )


def _run_one_wealth(
    params: dict,
    utilization: UtilizationMode,
    wealth: float,
    seed: int,
    horizon: float | None = None,
) -> dict:
    """Run one (utilization, average wealth) market and summarise it."""
    symmetric = utilization is UtilizationMode.SYMMETRIC
    if horizon is None:
        horizon = max(params["min_horizon"], params["horizon_per_wealth"] * float(wealth))
    config = MarketSimConfig(
        num_peers=params["num_peers"],
        initial_credits=float(wealth),
        horizon=horizon,
        step=params["step"],
        utilization=utilization,
        spending_rate_noise=0.05 if symmetric else 0.0,
        sample_interval=max(params["step"], horizon / 120.0),
        seed=seed,
    )
    result = CreditMarketSimulator.run_config(config)
    gini_series = result.recorder.gini_series
    gini_series.label = f"c={wealth:g}"
    return {
        "series": gini_series,
        "horizon": horizon,
        "row": dict(
            average_wealth_c=float(wealth),
            stabilized_gini=result.stabilized_gini,
            final_gini=result.final_gini,
            converged=result.recorder.has_converged(),
            bankrupt_fraction=bankruptcy_fraction(result.final_wealths),
            total_transfers=result.total_transfers,
        ),
    }


def _run_point(
    utilization: UtilizationMode,
    scale: str,
    seed: int,
    average_wealth: float,
    num_peers: int | None,
    horizon: float | None,
) -> ExperimentResult:
    """Shared point-runner implementation for the Fig. 7/8 sweep axes."""
    params = _scale_params(scale)
    if num_peers is not None:
        params["num_peers"] = int(num_peers)
    if horizon is not None:
        horizon = float(horizon)
    average_wealth = float(average_wealth)
    symmetric = utilization is UtilizationMode.SYMMETRIC
    title = TITLE_SYMMETRIC if symmetric else TITLE_ASYMMETRIC
    experiment_id = "fig7" if symmetric else "fig8"

    outcome = _run_one_wealth(params, utilization, average_wealth, seed, horizon=horizon)
    metadata = dict(
        params,
        scale=str(scale),
        seed=seed,
        average_wealth=average_wealth,
        horizon=outcome["horizon"],
        utilization=utilization.value,
    )
    table = ResultTable(title=title, metadata=metadata)
    table.add_row(**outcome["row"])
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        tables=[table],
        series=[outcome["series"]],
        metadata=metadata,
    )


def run_point_symmetric(
    scale: str = Scale.DEFAULT,
    seed: int = 0,
    average_wealth: float = 100.0,
    num_peers: int | None = None,
    horizon: float | None = None,
) -> ExperimentResult:
    """Fig. 7 sweep shard: one average wealth under symmetric utilization.

    ``horizon`` defaults to the scale preset's wealth-proportional horizon
    (``max(min_horizon, horizon_per_wealth * c)``).
    """
    return _run_point(
        UtilizationMode.SYMMETRIC, scale, seed, average_wealth, num_peers, horizon
    )


def run_point_asymmetric(
    scale: str = Scale.DEFAULT,
    seed: int = 0,
    average_wealth: float = 100.0,
    num_peers: int | None = None,
    horizon: float | None = None,
) -> ExperimentResult:
    """Fig. 8 sweep shard: one average wealth under asymmetric utilization."""
    return _run_point(
        UtilizationMode.ASYMMETRIC, scale, seed, average_wealth, num_peers, horizon
    )


def run_gini_evolution(
    utilization: UtilizationMode,
    scale: str = Scale.DEFAULT,
    seed: int = 0,
) -> ExperimentResult:
    """Shared implementation for Figs. 7 and 8."""
    params = _scale_params(scale)
    symmetric = utilization is UtilizationMode.SYMMETRIC
    title = TITLE_SYMMETRIC if symmetric else TITLE_ASYMMETRIC
    experiment_id = "fig7" if symmetric else "fig8"

    table = ResultTable(title=title, metadata=dict(params, scale=str(scale), seed=seed))
    series = []
    for wealth in params["wealth_levels"]:
        outcome = _run_one_wealth(params, utilization, wealth, seed)
        series.append(outcome["series"])
        table.add_row(**outcome["row"])

    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        tables=[table],
        series=series,
        metadata=dict(params, scale=str(scale), seed=seed, utilization=utilization.value),
    )


def run_symmetric(scale: str = Scale.DEFAULT, seed: int = 0) -> ExperimentResult:
    """Fig. 7 — symmetric utilization."""
    return run_gini_evolution(UtilizationMode.SYMMETRIC, scale=scale, seed=seed)


def run_asymmetric(scale: str = Scale.DEFAULT, seed: int = 0) -> ExperimentResult:
    """Fig. 8 — asymmetric utilization."""
    return run_gini_evolution(UtilizationMode.ASYMMETRIC, scale=scale, seed=seed)
