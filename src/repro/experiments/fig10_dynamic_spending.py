"""Fig. 10 — static vs dynamic (wealth-proportional) spending rates.

Sec. VI-D of the paper lets a peer raise its maximum spending rate in
proportion to its wealth once the wealth exceeds a threshold ``m``
(``μ_i = μ_i^s B_i / m`` for ``B_i > m``).  The stabilized Gini index under
this dynamic adjustment is smaller than with fixed spending rates: rich
peers recirculate their surplus instead of hoarding it.
"""

from __future__ import annotations

from repro.core.spending import DynamicSpendingPolicy, FixedSpendingPolicy
from repro.experiments.common import ExperimentResult, Scale, scale_parameters
from repro.p2psim.config import MarketSimConfig, UtilizationMode
from repro.p2psim.market_sim import CreditMarketSimulator
from repro.utils.records import ResultTable

__all__ = ["run", "run_point", "SPENDING_POLICIES"]

EXPERIMENT_ID = "fig10"
TITLE = "Fig. 10 — static vs dynamic spending rates"

#: Spending policies `run_point` accepts for its ``spending_policy`` axis.
SPENDING_POLICIES = ("fixed", "dynamic")

#: Parameters `run_point` accepts as sweep axes.
SWEEP_PARAMS = (
    "spending_policy",
    "wealth_threshold",
    "initial_credits",
    "num_peers",
    "horizon",
)


def _scale_params(scale: str) -> dict:
    return scale_parameters(
        scale,
        smoke=dict(num_peers=60, horizon=400.0, step=2.0, initial_credits=30.0),
        default=dict(num_peers=200, horizon=5000.0, step=2.0, initial_credits=100.0),
        paper=dict(num_peers=1000, horizon=40000.0, step=1.0, initial_credits=100.0),
    )


def _run_policy(
    params: dict,
    policy,
    label: str,
    seed: int,
) -> dict:
    """Run one spending-policy market and summarise it."""
    config = MarketSimConfig(
        num_peers=params["num_peers"],
        initial_credits=params["initial_credits"],
        horizon=params["horizon"],
        step=params["step"],
        utilization=UtilizationMode.ASYMMETRIC,
        spending_policy=policy,
        sample_interval=max(params["step"], params["horizon"] / 100.0),
        seed=seed,
    )
    result = CreditMarketSimulator.run_config(config)
    gini_series = result.recorder.gini_series
    gini_series.label = label
    return {
        "series": gini_series,
        "row": dict(
            spending_policy=label,
            stabilized_gini=result.stabilized_gini,
            final_gini=result.final_gini,
            total_transfers=result.total_transfers,
        ),
    }


def run_point(
    scale: str = Scale.DEFAULT,
    seed: int = 0,
    spending_policy: str = "dynamic",
    wealth_threshold: float | None = None,
    initial_credits: float | None = None,
    num_peers: int | None = None,
    horizon: float | None = None,
) -> ExperimentResult:
    """Run one spending-policy grid point of the Fig. 10 study.

    ``spending_policy`` is ``"fixed"`` (no adjustment) or ``"dynamic"``
    (wealth-proportional adjustment above ``wealth_threshold``, the
    paper's ``m``); the threshold defaults to the initial wealth as in the
    paper.  Initial wealth, population and horizon default to the scale
    preset.
    """
    params = _scale_params(scale)
    if num_peers is not None:
        params["num_peers"] = int(num_peers)
    if horizon is not None:
        params["horizon"] = float(horizon)
    if initial_credits is not None:
        params["initial_credits"] = float(initial_credits)
    spending_policy = str(spending_policy)

    if spending_policy == "fixed":
        # The threshold is meaningless without the dynamic adjustment; keep
        # it out of the label/metadata so two fixed-policy rows never differ
        # only in an ignored knob.
        policy = FixedSpendingPolicy()
        wealth_threshold = None
        label = "fixed"
    elif spending_policy == "dynamic":
        if wealth_threshold is None:
            wealth_threshold = params["initial_credits"]
        wealth_threshold = float(wealth_threshold)
        policy = DynamicSpendingPolicy(wealth_threshold=wealth_threshold)
        label = f"dynamic (m={wealth_threshold:g})"
    else:
        raise ValueError(
            f"unknown spending_policy {spending_policy!r}; "
            f"known policies: {', '.join(SPENDING_POLICIES)}"
        )

    outcome = _run_policy(params, policy, label, seed)
    metadata = dict(
        params,
        scale=str(scale),
        seed=seed,
        spending_policy=spending_policy,
        spending_threshold_m=wealth_threshold,
    )
    table = ResultTable(title=TITLE, metadata=metadata)
    table.add_row(**outcome["row"])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        series=[outcome["series"]],
        metadata=metadata,
    )


def run(scale: str = Scale.DEFAULT, seed: int = 0) -> ExperimentResult:
    """Compare fixed spending rates against the wealth-proportional adjustment."""
    params = _scale_params(scale)
    threshold = params["initial_credits"]

    policies = {
        "without adjustment": FixedSpendingPolicy(),
        "with adjustment": DynamicSpendingPolicy(wealth_threshold=threshold),
    }

    table = ResultTable(title=TITLE, metadata=dict(params, scale=str(scale), seed=seed))
    series = []
    for label, policy in policies.items():
        outcome = _run_policy(params, policy, label, seed)
        series.append(outcome["series"])
        table.add_row(**outcome["row"])

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        series=series,
        metadata=dict(params, scale=str(scale), seed=seed, spending_threshold_m=threshold),
    )
