"""Every figure's simulator runs survive a pickle round-trip between rounds.

For each figure whose smoke sweep point runs a simulator — market and
streaming, static and churned — the test records every simulator
configuration the point builds, then re-runs each with the simulator
pickled and unpickled after round 1, mid-run, one round before the end,
or after every round.  Each must end byte-identical to the uninterrupted
run.  fig2, fig3 and fig4 are analytic (sampling and queueing) and run no
simulator.
"""

import copy
import functools

import pytest

from repro.experiments import run_sweep_point
from repro.p2psim.slots import SlotSimulator
from roundtrip import result_fingerprint, run_round_tripped

#: Smoke sweep points and the axes that pick their simulator and policies.
POINTS = {
    "fig1-poisson-seller": ("fig1", {"pricing_model": "poisson-seller"}),
    "fig1-uniform": ("fig1", {"pricing_model": "uniform"}),
    "fig5_6-market": ("fig5_6", {"simulator": "market"}),
    "fig5_6-streaming": ("fig5_6", {"simulator": "streaming"}),
    "fig7": ("fig7", {}),
    "fig8": ("fig8", {}),
    "fig9-light-tax": ("fig9", {"tax_rate": 0.2, "tax_threshold": 20.0}),
    "fig9-heavy-tax": ("fig9", {"tax_rate": 0.5, "tax_threshold": 5.0}),
    "fig10-fixed": ("fig10", {"spending_policy": "fixed"}),
    "fig10-dynamic": ("fig10", {"spending_policy": "dynamic"}),
    "fig11-market": ("fig11", {"simulator": "market", "mean_lifespan": 250.0}),
    "fig11-streaming-static": ("fig11", {"simulator": "streaming"}),
    "fig11-streaming": ("fig11", {"simulator": "streaming", "mean_lifespan": 60.0}),
}

#: The rounds after which the simulator is round-tripped, given the total.
SPLITS = {
    "after-round-1": lambda total: [1],
    "mid-run": lambda total: [total // 2],
    "before-last-round": lambda total: [total - 1],
    "every-round": lambda total: range(1, total),
}


@functools.lru_cache(maxsize=None)
def point_runs(name):
    """``(class, config, snapshot times, fingerprint)`` of each run the point makes.

    Configs are deep-copied before the run, so each is kept as the run
    started from it, and results are fingerprinted before the point
    runner relabels a series.
    """
    experiment_id, config = POINTS[name]
    runs = []
    original = SlotSimulator.__dict__["run_config"]

    def recording(cls, sim_config, topology=None, snapshot_times=None):
        assert topology is None  # every point builds its own overlay
        pristine = copy.deepcopy(sim_config)
        result = original.__func__(cls, sim_config, snapshot_times=snapshot_times)
        runs.append((cls, pristine, snapshot_times, result_fingerprint(result)))
        return result

    SlotSimulator.run_config = classmethod(recording)
    try:
        run_sweep_point(experiment_id, dict(config), scale="smoke", seed=11)
    finally:
        SlotSimulator.run_config = original
    assert runs, f"{name} ran no simulator"
    return tuple(runs)


@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("name", sorted(POINTS))
def test_round_trip_byte_identical_to_uninterrupted_run(name, split):
    for sim_cls, config, snapshot_times, uninterrupted in point_runs(name):
        simulator = sim_cls(copy.deepcopy(config), snapshot_times=snapshot_times)
        round_tripped = run_round_tripped(simulator, at=SPLITS[split](simulator.total_rounds()))
        assert result_fingerprint(round_tripped) == uninterrupted


def test_points_cover_both_simulators_static_and_churned():
    runs = [run for name in POINTS for run in point_runs(name)]
    kinds = {(sim_cls.__name__, config.churn is not None) for sim_cls, config, _, _ in runs}
    assert kinds == {
        ("CreditMarketSimulator", False),
        ("CreditMarketSimulator", True),
        ("StreamingMarketSimulator", False),
        ("StreamingMarketSimulator", True),
    }
