"""Figs. 5 and 6 — convergence of the credit distribution over time.

Sec. VI-A of the paper runs the streaming market with symmetric utilization
for 40000 seconds on a 1000-peer overlay and plots the sorted
credit-queue-length profile at several sampling times:

* Fig. 5 (early stage, first half of the run): the profiles at successive
  sampling times differ markedly — the distribution is still spreading;
* Fig. 6 (later stage, second half): the profiles overlap — the queue-length
  distribution has converged to its equilibrium shape.

The runner produces the sorted wealth profiles at several early and late
sampling times and a convergence statistic: the mean L1 distance between
consecutive sorted profiles, which should be much larger in the early stage
than in the late stage.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.experiments.common import ExperimentResult, Scale, scale_parameters
from repro.p2psim.config import MarketSimConfig, StreamingSimConfig, UtilizationMode
from repro.p2psim.market_sim import CreditMarketSimulator
from repro.p2psim.streaming_sim import StreamingMarketSimulator
from repro.utils.records import ResultTable, SeriesRecord

__all__ = ["run", "run_point", "profile_distance"]

EXPERIMENT_ID = "fig5_6"
TITLE = "Figs. 5-6 — convergence of the credit distribution (early vs late profiles)"

#: Simulators `run_point` accepts for its ``simulator`` axis: the
#: transaction-level market simulator (fast, the default) or the
#: chunk-level streaming simulator (the paper's actual Sec. VI-A setting).
SIMULATORS = ("market", "streaming")

#: Parameters `run_point` accepts as sweep axes.
SWEEP_PARAMS = (
    "num_peers",
    "horizon",
    "initial_credits",
    "num_snapshots",
    "simulator",
)


def profile_distance(profiles: List[np.ndarray]) -> float:
    """Mean L1 distance (per peer) between consecutive sorted wealth profiles."""
    if len(profiles) < 2:
        return 0.0
    distances = []
    for previous, current in zip(profiles, profiles[1:]):
        size = min(previous.size, current.size)
        if size == 0:
            continue
        distances.append(float(np.mean(np.abs(previous[:size] - current[:size]))))
    return float(np.mean(distances)) if distances else 0.0


def run_point(
    scale: str = Scale.DEFAULT,
    seed: int = 0,
    num_peers: int | None = None,
    horizon: float | None = None,
    initial_credits: float | None = None,
    num_snapshots: int | None = None,
    simulator: str = "market",
) -> ExperimentResult:
    """Run one convergence study as a sweep shard.

    The sweep axes are the convergence horizon and the population (plus
    initial wealth and snapshot count); each defaults to the scale preset.
    Sweeping ``horizon`` reproduces the paper's early/late contrast at
    several observation windows, sweeping ``num_peers`` its size
    sensitivity.  ``simulator="streaming"`` runs the chunk-level streaming
    market instead of the transaction-level one (Sec. VI-A's actual
    setting).
    """
    simulator = str(simulator)
    if simulator not in SIMULATORS:
        raise ValueError(
            f"unknown simulator {simulator!r}; known simulators: {', '.join(SIMULATORS)}"
        )
    params = scale_parameters(
        scale,
        smoke=dict(num_peers=60, horizon=600.0, step=2.0, initial_credits=20.0, num_snapshots=3),
        default=dict(
            num_peers=300, horizon=8000.0, step=2.0, initial_credits=50.0, num_snapshots=4
        ),
        paper=dict(
            num_peers=1000, horizon=40000.0, step=2.0, initial_credits=100.0, num_snapshots=5
        ),
    )
    if num_peers is not None:
        params["num_peers"] = int(num_peers)
    if horizon is not None:
        params["horizon"] = float(horizon)
    if initial_credits is not None:
        params["initial_credits"] = float(initial_credits)
    if num_snapshots is not None:
        params["num_snapshots"] = int(num_snapshots)

    horizon = params["horizon"]
    count = params["num_snapshots"]
    # Early snapshots fall inside the transient (the spread of an initially
    # equal wealth vector takes on the order of c^2 seconds under symmetric
    # utilization), late snapshots in the converged second half of the run.
    early_times = list(np.geomspace(horizon * 0.005, horizon * 0.15, count))
    late_times = list(np.linspace(horizon * 0.6, horizon, count))
    if simulator == "streaming":
        streaming_config = StreamingSimConfig(
            num_peers=params["num_peers"],
            initial_credits=params["initial_credits"],
            horizon=horizon,
            sample_interval=max(1.0, horizon / 200.0),
            seed=seed,
        )
        result = StreamingMarketSimulator.run_config(
            streaming_config, snapshot_times=early_times + late_times
        )
    else:
        config = MarketSimConfig(
            num_peers=params["num_peers"],
            initial_credits=params["initial_credits"],
            horizon=horizon,
            step=params["step"],
            utilization=UtilizationMode.SYMMETRIC,
            sample_interval=max(params["step"], horizon / 200.0),
            seed=seed,
        )
        result = CreditMarketSimulator.run_config(
            config, snapshot_times=early_times + late_times
        )

    snapshots = result.recorder.snapshots
    early_profiles = [snapshots[t] for t in early_times if t in snapshots]
    late_profiles = [snapshots[t] for t in late_times if t in snapshots]

    series = []
    for label, times, profiles in (
        ("early", early_times, early_profiles),
        ("late", late_times, late_profiles),
    ):
        for snap_time, profile in zip(times, profiles):
            curve = SeriesRecord(label=f"{label} t={snap_time:.0f}s")
            step = max(1, profile.size // 200)
            for index, wealth in enumerate(profile[::step]):
                curve.append(float(index * step), float(wealth))
            series.append(curve)

    metadata = dict(params, scale=str(scale), seed=seed, simulator=simulator)
    table = ResultTable(title=TITLE, metadata=metadata)
    table.add_row(
        stage="early (Fig. 5)",
        num_profiles=len(early_profiles),
        mean_profile_distance=profile_distance(early_profiles),
        final_gini=result.recorder.gini_at(horizon * 0.5),
    )
    table.add_row(
        stage="late (Fig. 6)",
        num_profiles=len(late_profiles),
        mean_profile_distance=profile_distance(late_profiles),
        final_gini=result.final_gini,
    )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        series=series,
        metadata=metadata,
    )


def run(scale: str = Scale.DEFAULT, seed: int = 0) -> ExperimentResult:
    """Run the symmetric-utilization market and compare early vs late wealth profiles."""
    return run_point(scale=scale, seed=seed)
