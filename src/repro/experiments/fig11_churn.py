"""Fig. 11 — impact of peer dynamics (churn) on the credit distribution.

Sec. VI-E studies dynamic overlays — peers arrive as a Poisson process,
receive ``c`` fresh credits, live an exponential time and take their
credits away on departure (an open Jackson network).  Three sub-figures:

1. **fixed overlay size** — arrival rate × lifespan held constant: dynamic
   overlays end up with *smaller* Gini indices than a static overlay of the
   same size (peers leave before accumulating extreme wealth);
2. **fixed mean lifespan** — varying arrival rate has little effect on the
   skewness;
3. **fixed arrival rate** — longer lifespans raise the skewness (rich peers
   have more time to get richer).

The runner reproduces all three sweeps with the transaction-level market
simulator and reports the stabilized Gini index for each setting.  At the
``default`` scale the overlay holds a few hundred peers instead of 1000,
with the arrival rates scaled accordingly (lifespans keep the paper's
values so the sub-figure structure is recognisable).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import ExperimentResult, Scale, scale_parameters
from repro.overlay.churn import ChurnConfig
from repro.p2psim.config import MarketSimConfig, StreamingSimConfig, UtilizationMode
from repro.p2psim.market_sim import CreditMarketSimulator
from repro.p2psim.streaming_sim import StreamingMarketSimulator
from repro.utils.records import ResultTable

__all__ = ["run", "run_point"]

EXPERIMENT_ID = "fig11"
TITLE = "Fig. 11 — impact of peer dynamics on the skewness of the credit distribution"

#: Simulators `run_point` accepts for its ``simulator`` axis.
SIMULATORS = ("market", "streaming")

#: Parameters `run_point` accepts as sweep axes.
SWEEP_PARAMS = (
    "mean_lifespan",
    "rate_factor",
    "arrival_rate",
    "num_peers",
    "horizon",
    "simulator",
)


def run_point(
    scale: str = Scale.DEFAULT,
    seed: int = 0,
    mean_lifespan: float | None = None,
    rate_factor: float = 1.0,
    arrival_rate: float | None = None,
    num_peers: int | None = None,
    horizon: float | None = None,
    simulator: str = "market",
) -> ExperimentResult:
    """Run one churn setting of the Fig. 11 study as a sweepable grid point.

    ``mean_lifespan=None`` simulates the static overlay (no churn).  With a
    lifespan, the arrival rate defaults to ``rate_factor × population /
    mean_lifespan`` — ``rate_factor=1`` keeps the expected overlay size
    equal to the static population — or can be fixed directly with
    ``arrival_rate``.  ``simulator="streaming"`` runs the chunk-level
    streaming market under churn instead of the transaction-level one.
    """
    simulator = str(simulator)
    if simulator not in SIMULATORS:
        raise ValueError(
            f"unknown simulator {simulator!r}; known simulators: {', '.join(SIMULATORS)}"
        )
    params = scale_parameters(
        scale,
        smoke=dict(num_peers=60, initial_credits=20.0, horizon=500.0, step=2.0),
        default=dict(num_peers=200, initial_credits=100.0, horizon=6000.0, step=2.5),
        paper=dict(num_peers=1000, initial_credits=100.0, horizon=8000.0, step=1.0),
    )
    if num_peers is not None:
        params["num_peers"] = int(num_peers)
    if horizon is not None:
        params["horizon"] = float(horizon)

    if mean_lifespan is None:
        if arrival_rate is not None:
            raise ValueError(
                "arrival_rate requires mean_lifespan (a static overlay has no arrivals)"
            )
        if float(rate_factor) != 1.0:
            raise ValueError(
                "rate_factor requires mean_lifespan (a static overlay has no arrivals)"
            )
        churn: Optional[ChurnConfig] = None
        label = "static topology"
        rate = 0.0
    else:
        mean_lifespan = float(mean_lifespan)
        if arrival_rate is not None:
            rate = float(arrival_rate)
        else:
            rate = float(rate_factor) * params["num_peers"] / mean_lifespan
        churn = ChurnConfig(arrival_rate=rate, mean_lifespan=mean_lifespan)
        label = f"lifespan={mean_lifespan:.0f}s, arr. rate={rate:.2g}/s"

    outcome = _run_single(params, churn, label, seed, simulator=simulator)
    metadata = dict(
        params,
        scale=str(scale),
        seed=seed,
        mean_lifespan=mean_lifespan,
        arrival_rate=rate,
        rate_factor=float(rate_factor),
        simulator=simulator,
    )
    table = ResultTable(title=TITLE, metadata=metadata)
    table.add_row(
        setting=label,
        mean_lifespan=0.0 if mean_lifespan is None else mean_lifespan,
        arrival_rate=rate,
        stabilized_gini=outcome["stabilized_gini"],
        final_gini=outcome["final_gini"],
        final_population=outcome["final_population"],
        joins=outcome["joins"],
        leaves=outcome["leaves"],
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        series=[outcome["series"]],
        metadata=metadata,
    )


def _run_single(
    params: dict,
    churn: Optional[ChurnConfig],
    label: str,
    seed: int,
    simulator: str = "market",
) -> dict:
    """Run one churn setting and summarise it."""
    if simulator == "streaming":
        streaming_config = StreamingSimConfig(
            num_peers=params["num_peers"],
            initial_credits=params["initial_credits"],
            horizon=params["horizon"],
            churn=churn,
            sample_interval=max(1.0, params["horizon"] / 80.0),
            seed=seed,
        )
        result = StreamingMarketSimulator.run_config(streaming_config)
    else:
        config = MarketSimConfig(
            num_peers=params["num_peers"],
            initial_credits=params["initial_credits"],
            horizon=params["horizon"],
            step=params["step"],
            utilization=UtilizationMode.ASYMMETRIC,
            churn=churn,
            sample_interval=max(params["step"], params["horizon"] / 80.0),
            seed=seed,
        )
        result = CreditMarketSimulator.run_config(config)
    gini_series = result.recorder.gini_series
    gini_series.label = label
    return {
        "label": label,
        "series": gini_series,
        "stabilized_gini": result.stabilized_gini,
        "final_gini": result.final_gini,
        "final_population": result.extras["final_population"],
        "joins": result.joins,
        "leaves": result.leaves,
    }


def run(scale: str = Scale.DEFAULT, seed: int = 0) -> ExperimentResult:
    """Run the three churn sweeps of Fig. 11."""
    params = scale_parameters(
        scale,
        smoke=dict(
            num_peers=60,
            initial_credits=20.0,
            horizon=500.0,
            step=2.0,
            population=60,
            lifespans=[250.0, 500.0],
            arrival_scale=60,
        ),
        default=dict(
            num_peers=200,
            initial_credits=100.0,
            horizon=6000.0,
            step=2.5,
            population=200,
            lifespans=[500.0, 1000.0, 2000.0],
            arrival_scale=200,
        ),
        paper=dict(
            num_peers=1000,
            initial_credits=100.0,
            horizon=8000.0,
            step=1.0,
            population=1000,
            lifespans=[500.0, 1000.0, 2000.0],
            arrival_scale=1000,
        ),
    )

    population = params["population"]
    tables = []
    series = []
    metadata = dict(params, scale=str(scale), seed=seed)

    # -- sub-figure (1): fixed overlay size -----------------------------------------
    table1 = ResultTable(
        title="Fig. 11(1) — fixed overlay size (arrival rate x lifespan = size)",
        metadata=metadata,
    )
    settings1 = [("static topology", None)]
    for lifespan in params["lifespans"][:2]:
        rate = population / lifespan
        settings1.append(
            (
                f"lifespan={lifespan:.0f}s, arr. rate={rate:.2g}/s",
                ChurnConfig(arrival_rate=rate, mean_lifespan=lifespan),
            )
        )
    for label, churn in settings1:
        outcome = _run_single(params, churn, label, seed)
        series.append(outcome["series"])
        table1.add_row(
            setting=label,
            stabilized_gini=outcome["stabilized_gini"],
            final_population=outcome["final_population"],
            joins=outcome["joins"],
            leaves=outcome["leaves"],
        )
    tables.append(table1)

    # -- sub-figure (2): fixed mean lifespan, varying arrival rate ------------------
    base_lifespan = params["lifespans"][0]
    table2 = ResultTable(
        title=f"Fig. 11(2) — fixed mean lifespan ({base_lifespan:.0f}s), varying arrival rate",
        metadata=metadata,
    )
    base_rate = population / base_lifespan
    for factor in (1.0, 2.0, 4.0):
        rate = base_rate * factor
        label = f"lifespan={base_lifespan:.0f}s, arr. rate={rate:.2g}/s"
        outcome = _run_single(
            params, ChurnConfig(arrival_rate=rate, mean_lifespan=base_lifespan), label, seed
        )
        series.append(outcome["series"])
        table2.add_row(
            setting=label,
            arrival_rate=rate,
            stabilized_gini=outcome["stabilized_gini"],
            final_population=outcome["final_population"],
        )
    tables.append(table2)

    # -- sub-figure (3): fixed arrival rate, varying lifespan -----------------------
    table3 = ResultTable(
        title="Fig. 11(3) — fixed arrival rate, varying mean lifespan", metadata=metadata
    )
    for lifespan in params["lifespans"]:
        label = f"lifespan={lifespan:.0f}s, arr. rate={base_rate:.2g}/s"
        outcome = _run_single(
            params, ChurnConfig(arrival_rate=base_rate, mean_lifespan=lifespan), label, seed
        )
        series.append(outcome["series"])
        table3.add_row(
            setting=label,
            mean_lifespan=lifespan,
            stabilized_gini=outcome["stabilized_gini"],
            final_population=outcome["final_population"],
        )
    tables.append(table3)

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=tables,
        series=series,
        metadata=metadata,
    )
