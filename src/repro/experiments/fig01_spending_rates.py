"""Fig. 1 — credit spending-rate distributions with and without condensation.

The paper's motivating experiment (Sec. III-A): a mesh P2P live-streaming
swarm on a scale-free overlay is run for a long time in two configurations:

* **case A (condensation)** — large initial wealth (paper: ``c = 200``) and
  non-uniform chunk prices, Poisson-distributed with a mean of 1 credit;
  the credit distribution condenses (Gini ≈ 0.9) and most peers end up
  with very low credit spending (= download) rates;
* **case B (healthy)** — small initial wealth (paper: ``c = 12``) and
  uniform pricing at 1 credit per chunk; spending rates stay balanced
  (Gini ≈ 0.1).

The runner reproduces both cases with the chunk-level streaming simulator
and reports the per-peer spending-rate profile and its Gini index.  The
``default`` scale shrinks the population and horizon (and the case-A wealth
proportionally) so the benchmark completes in about a minute; the shape —
case A's spending-rate Gini far above case B's, and case A's mean spending
rate depressed — is preserved.

Interpretation note: the paper says peers "charge different credits for
selling different chunks, which follow a Poisson distribution with an
average of 1 credit per chunk".  We realise this as a per-seller flat price
drawn from ``Poisson(1)`` — mean exactly the documented 1 credit — so every
seller has a stable, heterogeneous price, which is the reading that
produces sustained income asymmetry and hence condensation.  The draw
includes zero-price sellers (~37% at mean 1): they give chunks away, earn
nothing, and deepen the income asymmetry driving case A.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import gini_index, wealth_summary
from repro.core.pricing import PerPeerFlatPricing, PricingScheme, UniformPricing
from repro.experiments.common import ExperimentResult, Scale, scale_parameters
from repro.p2psim.config import StreamingSimConfig
from repro.p2psim.streaming_sim import StreamingMarketSimulator
from repro.utils.records import ResultTable, SeriesRecord
from repro.utils.rng import make_rng

__all__ = ["run", "run_point", "MEAN_CHUNK_PRICE", "PRICING_MODELS"]

EXPERIMENT_ID = "fig1"
TITLE = "Fig. 1 — Distribution of credit spending rates, with and without condensation"

#: The paper's documented average chunk price: "a Poisson distribution with
#: an average of 1 credit per chunk".  Both pricing models realise this mean.
MEAN_CHUNK_PRICE = 1.0

#: Pricing models `run_point` accepts for its ``pricing_model`` axis.
PRICING_MODELS = ("uniform", "poisson-seller")

#: Parameters `run_point` accepts as sweep axes.
SWEEP_PARAMS = (
    "initial_credits",
    "pricing_model",
    "mean_price",
    "num_peers",
    "horizon",
)


def _poisson_seller_prices(num_peers: int, mean_price: float, seed: int) -> PerPeerFlatPricing:
    """Per-seller flat prices drawn from ``Poisson(mean_price)``.

    The realised mean matches the documented average price (the paper's
    1 credit); zero-price sellers are kept — they earn nothing, which is
    part of the income asymmetry behind condensation.
    """
    rng = make_rng(seed, "fig1-prices")
    prices = {peer: float(rng.poisson(mean_price)) for peer in range(num_peers)}
    return PerPeerFlatPricing(prices)


def _make_pricing(pricing_model: str, mean_price: float, num_peers: int, seed: int) -> PricingScheme:
    """Instantiate the pricing scheme for one Fig. 1 case."""
    if pricing_model == "uniform":
        return UniformPricing(mean_price)
    if pricing_model == "poisson-seller":
        return _poisson_seller_prices(num_peers, mean_price, seed)
    raise ValueError(
        f"unknown pricing_model {pricing_model!r}; known models: {', '.join(PRICING_MODELS)}"
    )


def _run_case(
    params: dict,
    initial_credits: float,
    pricing: PricingScheme,
    seed: int,
) -> dict:
    """Run one streaming-market configuration and summarise it."""
    config = StreamingSimConfig(
        num_peers=params["num_peers"],
        initial_credits=initial_credits,
        horizon=params["horizon"],
        pricing=pricing,
        upload_capacity=1,
        seed_fanout=max(4, params["num_peers"] // 7),
        sample_interval=max(10.0, params["horizon"] / 20.0),
        seed=seed,
    )
    result = StreamingMarketSimulator.run_config(config)
    summary = wealth_summary(result.final_wealths)
    return {
        "result": result,
        "spending_rate_gini": gini_index(result.spending_rates),
        "wealth_gini": summary["gini"],
        "mean_spending_rate": float(np.mean(result.spending_rates)),
        "mean_continuity": float(np.mean(result.continuity)),
        "bankrupt_fraction": summary["bankrupt_fraction"],
    }


def _profile_series(label: str, spending_rates: np.ndarray) -> SeriesRecord:
    """Sorted per-peer spending-rate profile as a plottable series."""
    profile = SeriesRecord(label=label)
    for index, rate in enumerate(np.sort(spending_rates)):
        profile.append(float(index), float(rate))
    return profile


def run_point(
    scale: str = Scale.DEFAULT,
    seed: int = 0,
    initial_credits: float | None = None,
    pricing_model: str = "uniform",
    mean_price: float = MEAN_CHUNK_PRICE,
    num_peers: int | None = None,
    horizon: float | None = None,
) -> ExperimentResult:
    """Run a single Fig. 1 streaming-market configuration as a sweep shard.

    The sweep axes cross the paper's two levers — initial wealth and the
    pricing model (``uniform`` vs ``poisson-seller``) — plus the mean
    chunk price and the usual population/horizon knobs.
    ``initial_credits`` defaults to the scale preset's healthy-case wealth.
    """
    params = scale_parameters(
        scale,
        smoke=dict(num_peers=40, horizon=150.0, wealth_condensed=30.0, wealth_healthy=8.0),
        default=dict(num_peers=80, horizon=1600.0, wealth_condensed=60.0, wealth_healthy=12.0),
        paper=dict(num_peers=500, horizon=20000.0, wealth_condensed=200.0, wealth_healthy=12.0),
    )
    if num_peers is not None:
        params["num_peers"] = int(num_peers)
    if horizon is not None:
        params["horizon"] = float(horizon)
    if initial_credits is None:
        initial_credits = params["wealth_healthy"]
    initial_credits = float(initial_credits)
    mean_price = float(mean_price)
    pricing_model = str(pricing_model)

    pricing = _make_pricing(pricing_model, mean_price, params["num_peers"], seed)
    outcome = _run_case(params, initial_credits, pricing, seed)
    realized_mean_price = float(np.mean(pricing.price_array(range(params["num_peers"]))))

    metadata = dict(
        params,
        scale=str(scale),
        seed=seed,
        initial_credits=initial_credits,
        pricing_model=pricing_model,
        mean_price=mean_price,
    )
    label = f"{pricing_model} prices, c={initial_credits:g}"
    table = ResultTable(title=TITLE, metadata=metadata)
    table.add_row(
        case=label,
        initial_credits=initial_credits,
        realized_mean_price=realized_mean_price,
        spending_rate_gini=outcome["spending_rate_gini"],
        wealth_gini=outcome["wealth_gini"],
        mean_spending_rate=outcome["mean_spending_rate"],
        mean_continuity=outcome["mean_continuity"],
        bankrupt_fraction=outcome["bankrupt_fraction"],
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        series=[_profile_series(f"spending rates — {label}", outcome["result"].spending_rates)],
        metadata=metadata,
    )


def run(scale: str = Scale.DEFAULT, seed: int = 0) -> ExperimentResult:
    """Run both Fig. 1 cases and return spending-rate profiles and Gini indices."""
    params = scale_parameters(
        scale,
        smoke=dict(num_peers=40, horizon=150.0, wealth_condensed=30.0, wealth_healthy=8.0),
        default=dict(num_peers=80, horizon=1600.0, wealth_condensed=60.0, wealth_healthy=12.0),
        paper=dict(num_peers=500, horizon=20000.0, wealth_condensed=200.0, wealth_healthy=12.0),
    )

    cases = {
        "condensed (non-uniform prices)": dict(
            initial_credits=params["wealth_condensed"],
            pricing=_poisson_seller_prices(params["num_peers"], MEAN_CHUNK_PRICE, seed),
        ),
        "healthy (uniform prices)": dict(
            initial_credits=params["wealth_healthy"],
            pricing=UniformPricing(MEAN_CHUNK_PRICE),
        ),
    }

    table = ResultTable(title=TITLE, metadata=dict(params, scale=str(scale), seed=seed))
    series = []
    for label, case in cases.items():
        outcome = _run_case(params, case["initial_credits"], case["pricing"], seed)
        series.append(
            _profile_series(
                f"spending rates — {label}", outcome["result"].spending_rates
            )
        )
        table.add_row(
            case=label,
            initial_credits=case["initial_credits"],
            spending_rate_gini=outcome["spending_rate_gini"],
            wealth_gini=outcome["wealth_gini"],
            mean_spending_rate=outcome["mean_spending_rate"],
            mean_continuity=outcome["mean_continuity"],
            bankrupt_fraction=outcome["bankrupt_fraction"],
        )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        series=series,
        metadata=dict(params, scale=str(scale), seed=seed),
    )
