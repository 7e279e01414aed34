"""Fig. 9 — the effect of taxation on the skewness of the credit distribution.

Sec. VI-C of the paper introduces an income tax: peers whose wealth exceeds
a threshold pay a fixed proportion of their income to the system, and the
system returns one credit to every peer once it has collected ``N`` of
them.  The experiment compares no taxation against tax rates of 0.1 and 0.2
combined with thresholds of 50 and 80 (average wealth 100, asymmetric
utilization), with three observations:

1. taxation prevents the distribution from evolving toward extreme skew;
2. raising the tax *threshold* (toward the average wealth) lowers the Gini;
3. when the threshold is far below the average wealth, raising the tax rate
   has almost no additional effect — it only helps when the threshold is
   close to the average wealth.
"""

from __future__ import annotations

from repro.core.taxation import NoTax, TaxPolicy, ThresholdIncomeTax
from repro.experiments.common import ExperimentResult, Scale, scale_parameters
from repro.p2psim.config import MarketSimConfig, UtilizationMode
from repro.p2psim.market_sim import CreditMarketSimulator
from repro.utils.records import ResultTable, SeriesRecord

__all__ = ["run", "run_point"]

EXPERIMENT_ID = "fig9"
TITLE = "Fig. 9 — Gini index under different tax rates and thresholds"

#: Parameters `run_point` accepts as sweep axes.
SWEEP_PARAMS = ("tax_rate", "tax_threshold", "num_peers", "horizon")


def _run_setting(
    params: dict, seed: int, rate: float, threshold: float, table: ResultTable
) -> SeriesRecord:
    """Run one tax setting, add its row to ``table`` and return its Gini series.

    ``rate <= 0`` means no taxation.  The row's tax totals are the run's
    own, read from the result.
    """
    policy: TaxPolicy
    if rate <= 0.0:
        policy, label = NoTax(), "no taxation"
    else:
        policy = ThresholdIncomeTax(rate=rate, threshold=threshold)
        label = f"rate={rate:g} thres.={threshold:g}"
    config = MarketSimConfig(
        num_peers=params["num_peers"],
        initial_credits=params["initial_credits"],
        horizon=params["horizon"],
        step=params["step"],
        utilization=UtilizationMode.ASYMMETRIC,
        tax_policy=policy,
        sample_interval=max(params["step"], params["horizon"] / 100.0),
        seed=seed,
    )
    result = CreditMarketSimulator.run_config(config)
    table.add_row(
        taxation=label,
        tax_rate=rate,
        tax_threshold=threshold,
        stabilized_gini=result.stabilized_gini,
        final_gini=result.final_gini,
        total_tax_collected=result.extras["tax_collected"],
        total_tax_rebated=result.extras["tax_rebated"],
    )
    gini_series = result.recorder.gini_series
    gini_series.label = label
    return gini_series


def run_point(
    scale: str = Scale.DEFAULT,
    seed: int = 0,
    tax_rate: float = 0.0,
    tax_threshold: float = 50.0,
    num_peers: int | None = None,
    horizon: float | None = None,
) -> ExperimentResult:
    """Run one ``(tax_rate, tax_threshold)`` grid point of the Fig. 9 study.

    ``tax_rate=0`` means no taxation.  Population and horizon default to
    the scale preset but are sweepable too (the taxation grid of the
    sensitivity study varies rate × threshold at a fixed population).
    """
    params = scale_parameters(
        scale,
        smoke=dict(num_peers=60, horizon=400.0, step=2.0, initial_credits=30.0),
        default=dict(num_peers=200, horizon=5000.0, step=2.0, initial_credits=100.0),
        paper=dict(num_peers=1000, horizon=20000.0, step=1.0, initial_credits=100.0),
    )
    if num_peers is not None:
        params["num_peers"] = int(num_peers)
    if horizon is not None:
        params["horizon"] = float(horizon)
    tax_rate = float(tax_rate)
    tax_threshold = float(tax_threshold)
    metadata = dict(
        params,
        scale=str(scale),
        seed=seed,
        tax_rate=tax_rate,
        tax_threshold=tax_threshold,
    )
    table = ResultTable(title=TITLE, metadata=metadata)
    gini_series = _run_setting(params, seed, tax_rate, tax_threshold, table)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        series=[gini_series],
        metadata=metadata,
    )


def run(scale: str = Scale.DEFAULT, seed: int = 0) -> ExperimentResult:
    """Compare no-tax against the paper's four (rate, threshold) combinations."""
    params = scale_parameters(
        scale,
        smoke=dict(
            num_peers=60,
            horizon=400.0,
            step=2.0,
            initial_credits=30.0,
            tax_settings=[(None, None), (0.2, 24.0)],
        ),
        default=dict(
            num_peers=200,
            horizon=5000.0,
            step=2.0,
            initial_credits=100.0,
            tax_settings=[(None, None), (0.1, 50.0), (0.2, 50.0), (0.1, 80.0), (0.2, 80.0)],
        ),
        paper=dict(
            num_peers=1000,
            horizon=20000.0,
            step=1.0,
            initial_credits=100.0,
            tax_settings=[(None, None), (0.1, 50.0), (0.2, 50.0), (0.1, 80.0), (0.2, 80.0)],
        ),
    )

    table = ResultTable(title=TITLE, metadata=dict(params, scale=str(scale), seed=seed))
    series = [
        _run_setting(params, seed, rate or 0.0, threshold or 0.0, table)
        for rate, threshold in params["tax_settings"]
    ]

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[table],
        series=series,
        metadata=dict(params, scale=str(scale), seed=seed),
    )
