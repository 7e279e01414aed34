"""The paper's qualitative claims (Figs. 1-11), asserted over seeds.

Skew grows with the average wealth c; taxation and dynamic spending rates
inhibit it; churn reduces it.  Each simulation figure runs once per module
as a 5-replication sweep at ``default`` scale from base seed 0.  Rows of one
replication share its seed and overlay, so every comparison is a
per-replication paired difference, reduced to a 95% Student-t interval by
:func:`repro.utils.stats.confidence_interval`.  A claim takes one of three
forms:

* strict ("A < B"): the interval of ``A - B`` lies wholly below 0;
* weak ("A <= B"): the interval of ``A - B`` reaches 0, i.e. the seeds do
  not contradict the claim;
* bound ("A > 0.5"): the far end of the interval of ``A`` meets the bound.

The analytic figures (2 and 4) and the theory checks are deterministic and
run once.  The seeds are fixed: change them, the replication count or the
scale and the claims no longer mean what they were checked to mean.
"""

from typing import Dict, List

import numpy as np
import pytest

from repro.core.condensation import diagnose_condensation
from repro.core.market import CreditMarket
from repro.core.metrics import gini_from_pmf
from repro.core.pricing import PerPeerFlatPricing, UniformPricing
from repro.experiments import run_experiment
from repro.overlay import scale_free_topology
from repro.p2psim import CreditMarketSimulator, MarketSimConfig, UtilizationMode
from repro.queueing import ClosedJacksonNetwork, solve_traffic_equations
from repro.queueing.approximations import multinomial_marginal_pmf
from repro.runner import SweepSpec, run_sweep
from repro.utils.rng import make_rng
from repro.utils.stats import confidence_interval

REPLICATIONS = 5
BASE_SEED = 0


@pytest.fixture(scope="module")
def replications():
    """``replications(experiment_id)``: that figure's per-replication results.

    Each figure is swept once per module run, however many tests read it.
    """
    runs = {}

    def results(experiment_id):
        if experiment_id not in runs:
            spec = SweepSpec(
                experiment_id, replications=REPLICATIONS, base_seed=BASE_SEED, scale="default"
            )
            runs[experiment_id] = [shard.result() for shard in run_sweep(spec, jobs=0).shards]
        return runs[experiment_id]

    return results


def by_label(results, key: str, metric: str, table=None) -> Dict[object, np.ndarray]:
    """``{row[key]: metric of that row in each replication}`` for one table."""
    columns: Dict[object, List[float]] = {}
    for result in results:
        rows = {row[key]: float(row[metric]) for row in result.table(table)}
        assert not columns or rows.keys() == columns.keys(), "replications disagree on rows"
        for label, value in rows.items():
            columns.setdefault(label, []).append(value)
    return {label: np.asarray(values) for label, values in columns.items()}


def assert_below(differences, claim: str) -> None:
    """Strict form: the 95% interval of the paired differences lies below 0."""
    low, high = confidence_interval(differences)
    assert high < 0.0, f"{claim}: 95% interval ({low:+.4f}, {high:+.4f}) is not below 0"


def assert_not_above(differences, claim: str) -> None:
    """Weak form: the 95% interval of the paired differences reaches 0."""
    low, high = confidence_interval(differences)
    assert low <= 0.0, f"{claim}: 95% interval ({low:+.4f}, {high:+.4f}) lies above 0"


# -- simulation figures, over seeds ------------------------------------------------


def test_fig01_condensed_case_is_more_skewed(replications):
    for metric in ("spending_rate_gini", "wealth_gini"):
        ginis = by_label(replications("fig1"), "case", metric)
        assert_below(
            ginis["healthy (uniform prices)"] - ginis["condensed (non-uniform prices)"],
            f"healthy < condensed {metric}",
        )


def test_fig03_gini_grows_with_wealth_and_stays_below_one(replications):
    results = replications("fig3")
    for label in [series.label for series in results[0].series]:
        starts = np.array([result.series_by_label(label).y[0] for result in results])
        ends = np.array([result.series_by_label(label).y[-1] for result in results])
        assert_not_above(starts - ends, f"{label}: Gini at the first c <= at the last c")
        assert confidence_interval(ends)[1] < 1.0, label
    # Row order is deterministic, so row i of every replication is one (N, c) point.
    for rows in zip(*(result.table().rows for result in results)):
        point = f"N={rows[0]['num_peers_N']} c={rows[0]['average_wealth_c']:g}"
        assert all(f"N={row['num_peers_N']} c={row['average_wealth_c']:g}" == point for row in rows)
        assert_not_above(
            np.array([row["gini_eq8_approx"] - row["gini"] for row in rows]),
            f"{point}: Eq. (8) Gini <= scale-free Gini",
        )
        low, high = confidence_interval([row["gini_symmetric_composition"] for row in rows])
        assert 0.0 <= low and high <= 1.0, f"{point}: ({low}, {high}) not in [0, 1]"


def test_fig05_06_early_profiles_differ_more_than_late(replications):
    results = replications("fig5_6")
    distance = by_label(results, "stage", "mean_profile_distance")
    assert_below(
        distance["late (Fig. 6)"] - distance["early (Fig. 5)"],
        "late profile distance < early profile distance",
    )
    assert all(by_label(results, "stage", "num_profiles")["late (Fig. 6)"] >= 2)


def _stabilized_by_wealth(results) -> np.ndarray:
    """``(replication, c ascending)`` stabilised Ginis; every run must converge."""
    ginis = []
    for result in results:
        rows = sorted(result.table(), key=lambda row: row["average_wealth_c"])
        assert all(row["converged"] for row in rows)
        ginis.append([row["stabilized_gini"] for row in rows])
    return np.asarray(ginis)


@pytest.mark.parametrize("experiment_id", ["fig7", "fig8"])
def test_fig07_08_stabilized_gini_does_not_fall_as_wealth_grows(replications, experiment_id):
    ginis = _stabilized_by_wealth(replications(experiment_id))
    assert ginis.shape[1] >= 2
    for level in range(ginis.shape[1] - 1):
        assert_not_above(
            ginis[:, level] - ginis[:, level + 1],
            f"{experiment_id}: Gini at wealth level {level} <= at level {level + 1}",
        )


def test_fig08_asymmetric_gini_is_condensed(replications):
    ginis = _stabilized_by_wealth(replications("fig8"))
    for level in range(ginis.shape[1]):
        assert confidence_interval(ginis[:, level])[0] > 0.5, level


def test_fig09_taxation_inhibits_skew(replications):
    ginis = by_label(replications("fig9"), "taxation", "stabilized_gini")
    baseline = ginis.pop("no taxation")
    assert len(ginis) == 4
    # Observation 1: every taxed market is less skewed than the untaxed one.
    for label, taxed in ginis.items():
        assert_below(taxed - baseline, f"{label} < no taxation")
    # Observation 2: at a given rate, a higher threshold is at least as effective.
    for rate in ("0.1", "0.2"):
        assert_not_above(
            ginis[f"rate={rate} thres.=80"] - ginis[f"rate={rate} thres.=50"],
            f"rate={rate}: threshold 80 <= threshold 50",
        )


def test_fig10_dynamic_spending_inhibits_skew(replications):
    ginis = by_label(replications("fig10"), "spending_policy", "stabilized_gini")
    assert_below(
        ginis["with adjustment"] - ginis["without adjustment"], "with adjustment < without"
    )


def test_fig11_churn_reduces_skew(replications):
    ginis = by_label(replications("fig11"), "setting", "stabilized_gini", "Fig. 11(1)")
    static = ginis.pop("static topology")
    assert ginis
    for label, dynamic in ginis.items():
        assert_below(dynamic - static, f"{label} < static topology")


def test_fig11_arrival_rate_has_a_modest_effect(replications):
    ginis = by_label(replications("fig11"), "arrival_rate", "stabilized_gini", "Fig. 11(2)")
    spread = np.max(list(ginis.values()), axis=0) - np.min(list(ginis.values()), axis=0)
    assert confidence_interval(spread)[1] < 0.2


def test_fig11_longer_lifespans_allow_more_skew(replications):
    ginis = by_label(replications("fig11"), "mean_lifespan", "stabilized_gini", "Fig. 11(3)")
    assert_not_above(
        ginis[min(ginis)] - ginis[max(ginis)], "shortest lifespan's Gini <= longest's"
    )


def test_per_peer_prices_do_not_reduce_skew():
    """Sec. V-C: non-uniform per-seller prices make utilizations asymmetric."""
    differences = []
    for seed in range(REPLICATIONS):
        rng = make_rng(seed, "pricing-ablation")
        seller_prices = {peer: 1.0 + float(rng.poisson(0.5)) for peer in range(150)}
        ginis = [
            CreditMarketSimulator.run_config(
                MarketSimConfig(
                    num_peers=150,
                    initial_credits=50.0,
                    horizon=3000.0,
                    step=2.0,
                    utilization=UtilizationMode.SYMMETRIC,
                    spending_rate_noise=0.02,
                    pricing=pricing,
                    sample_interval=100.0,
                    seed=seed,
                )
            ).stabilized_gini
            for pricing in (UniformPricing(1.0), PerPeerFlatPricing(seller_prices))
        ]
        differences.append(ginis[0] - ginis[1])
    assert_not_above(differences, "uniform-price Gini <= per-peer-price Gini")


# -- analytic figures and theory, deterministic --------------------------------------


def test_fig02_exact_marginal_is_skewed_and_eq8_collapses():
    result = run_experiment("fig2", scale="default")
    rows = sorted(result.table().rows, key=lambda row: row["average_wealth_c"])
    for row in rows:
        assert 0.4 < row["gini_exact"] <= 0.75
        assert row["gini_exact"] >= row["gini_eq8"]
    eq8 = [row["gini_eq8"] for row in rows]
    assert all(later <= earlier + 1e-9 for earlier, later in zip(eq8, eq8[1:]))
    for series in result.series:
        assert series.x[0] == 0.0 and series.y[0] == 0.0
        assert series.x[-1] == pytest.approx(1.0) and series.y[-1] == pytest.approx(1.0)


def test_fig04_efficiency_saturates_and_tracks_finite_n():
    result = run_experiment("fig4", scale="default")
    rows = sorted(result.table().rows, key=lambda row: row["average_wealth_c"])
    eq9 = [row["efficiency_eq9"] for row in rows]
    assert all(later >= earlier for earlier, later in zip(eq9, eq9[1:]))
    assert eq9[-1] > 0.99
    for row in rows:
        assert abs(row["efficiency_eq9"] - row["efficiency_finite_N"]) < 0.05


@pytest.fixture(scope="module")
def paper_sized_market():
    return CreditMarket(scale_free_topology(1000, seed=7), initial_credits=100.0)


def test_lemma1_traffic_equations_on_1000_peers(paper_sized_market):
    solution = solve_traffic_equations(paper_sized_market.routing_matrix)
    assert np.all(solution.arrival_rates > 0)
    assert solution.residual < 1e-6


def test_condensation_diagnosis_accounts_for_every_credit(paper_sized_market):
    utilizations = paper_sized_market.equilibrium().utilizations
    report = diagnose_condensation(utilizations, average_wealth=100.0)
    total = 100.0 * len(utilizations)
    assert abs(report.expected_wealth.sum() - total) / total < 0.05


def test_buzen_marginals_against_eq6():
    num_queues, total_jobs = 40, 400
    utilizations = 0.5 + 0.5 * np.random.default_rng(11).random(num_queues)
    utilizations[0] = 1.0
    network = ClosedJacksonNetwork(utilizations, total_jobs)
    queues = (0, num_queues // 2, num_queues - 1)
    exact = [network.marginal_pmf(queue) for queue in queues]
    approx = [multinomial_marginal_pmf(utilizations, queue, total_jobs) for queue in queues]
    for pmf in exact + approx:
        assert float(np.sum(pmf)) == pytest.approx(1.0, abs=1e-6)
    # Eq. (6) underestimates condensation at the maximal-utilization peer.
    assert gini_from_pmf(exact[0]) >= gini_from_pmf(approx[0]) - 0.05
