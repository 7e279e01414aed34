"""Tests for the batched chunk-level streaming market simulator."""

import numpy as np
import pytest

from repro.core.pricing import PerPeerFlatPricing, UniformPricing
from repro.overlay.churn import ChurnConfig
from repro.p2psim import StreamingMarketSimulator, StreamingSimConfig
from kernel_oracles import LoopStreamingMarketSimulator


def small_config(**overrides):
    defaults = dict(
        num_peers=30,
        initial_credits=15.0,
        horizon=120.0,
        topology_mean_degree=8.0,
        sample_interval=30.0,
        upload_capacity=2,
        seed=4,
    )
    defaults.update(overrides)
    return StreamingSimConfig(**defaults)


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StreamingSimConfig(num_peers=1)
        with pytest.raises(ValueError):
            StreamingSimConfig(chunk_rate=0.0)
        with pytest.raises(ValueError):
            StreamingSimConfig(upload_capacity=0)
        with pytest.raises(ValueError):
            StreamingSimConfig(supplier_choice="weird")
        with pytest.raises(ValueError):
            StreamingSimConfig(num_peers=10, topology_mean_degree=30.0)

    def test_rejects_unknown_kernel(self):
        # One kernel per simulator: no kernel switch is accepted.
        with pytest.raises(TypeError, match="kernel"):
            StreamingSimConfig(kernel="bogus")

    def test_accepts_both_kernels_and_churn(self):
        churn = ChurnConfig(arrival_rate=0.5, mean_lifespan=100.0)
        config = StreamingSimConfig(num_peers=30, topology_mean_degree=6.0, churn=churn)
        assert config.churn is churn
        for simulator in (StreamingMarketSimulator, LoopStreamingMarketSimulator):
            assert simulator(config).config.churn is churn


class TestStreamingRun:
    def test_chunks_flow_and_credits_move(self):
        result = StreamingMarketSimulator.run_config(small_config())
        assert result.chunks_delivered > 200
        assert result.spending_rates.sum() > 0
        assert result.earning_rates.sum() > 0

    def test_credit_conservation_without_churn(self):
        config = small_config()
        simulator = StreamingMarketSimulator(config)
        result = simulator.run()
        assert result.final_wealths.sum() == pytest.approx(30 * 15.0, rel=1e-9)
        simulator.verify_conservation()

    def test_wealth_never_negative(self):
        result = StreamingMarketSimulator.run_config(small_config())
        assert np.all(result.final_wealths >= -1e-9)

    def test_deterministic_given_seed(self):
        a = StreamingMarketSimulator.run_config(small_config(seed=9))
        b = StreamingMarketSimulator.run_config(small_config(seed=9))
        np.testing.assert_allclose(a.final_wealths, b.final_wealths)
        assert a.chunks_delivered == b.chunks_delivered

    def test_playback_continuity_reasonable_when_credits_ample(self):
        result = StreamingMarketSimulator.run_config(
            small_config(initial_credits=100.0, horizon=150.0)
        )
        assert float(np.mean(result.continuity)) > 0.5

    def test_recorder_samples_gini_over_time(self):
        result = StreamingMarketSimulator.run_config(small_config())
        assert len(result.recorder.gini_series) >= 4
        assert result.recorder.gini_series.y[0] == pytest.approx(0.0, abs=1e-9)

    def test_spending_rate_gini_property(self):
        result = StreamingMarketSimulator.run_config(small_config())
        assert 0.0 <= result.spending_rate_gini <= 1.0

    def test_snapshots_recorded_at_requested_times(self):
        simulator = StreamingMarketSimulator(
            small_config(), snapshot_times=[30.0, 90.0]
        )
        result = simulator.run()
        assert set(result.recorder.snapshots) == {30.0, 90.0}

    def test_advance_rounds_plus_finalize_equals_run(self):
        whole = StreamingMarketSimulator(small_config()).run()
        split = StreamingMarketSimulator(small_config())
        total = split.total_rounds()
        split.advance_rounds(total // 2)
        split.advance_rounds(total - total // 2)
        chunked = split.finalize()
        assert whole.final_wealths.tobytes() == chunked.final_wealths.tobytes()
        assert whole.chunks_delivered == chunked.chunks_delivered


class TestEconomicEffects:
    def test_free_chunks_do_not_move_credits(self):
        # With a price of ~0 for every chunk nothing should ever be charged;
        # use per-peer prices far below affordability to check wiring instead:
        config = small_config(pricing=UniformPricing(0.001), initial_credits=1.0)
        result = StreamingMarketSimulator.run_config(config)
        # Everyone can afford ~1000 chunks, so continuity should not be
        # limited by wealth.
        assert float(np.mean(result.continuity)) > 0.4

    def test_broke_peers_cannot_download(self):
        # Expensive chunks and almost no credits: the chunk trade collapses.
        config = small_config(pricing=UniformPricing(50.0), initial_credits=1.0, horizon=80.0)
        result = StreamingMarketSimulator.run_config(config)
        assert result.chunks_delivered < 200
        assert float(np.mean(result.spending_rates)) < 0.1

    def test_heterogeneous_prices_skew_wealth_more_than_uniform(self):
        rng = np.random.default_rng(8)
        prices = {peer: float(1 + rng.poisson(1.0)) for peer in range(30)}
        uniform = StreamingMarketSimulator.run_config(
            small_config(pricing=UniformPricing(1.0), horizon=200.0, initial_credits=30.0)
        )
        heterogeneous = StreamingMarketSimulator.run_config(
            small_config(
                pricing=PerPeerFlatPricing(prices), horizon=200.0, initial_credits=30.0
            )
        )
        assert heterogeneous.final_gini > uniform.final_gini - 0.05

    def test_upload_capacity_limits_per_seller_earnings(self):
        config = small_config(upload_capacity=1, horizon=100.0)
        result = StreamingMarketSimulator.run_config(config)
        # With a cap of one chunk per second and prices of one credit, nobody
        # can earn much faster than one credit per second.
        assert result.earning_rates.max() <= 1.5

    def test_upload_capacity_never_exceeded_within_a_tick(self):
        config = small_config(upload_capacity=1, horizon=60.0)
        simulator = StreamingMarketSimulator(config)
        for _ in range(simulator.total_rounds()):
            before = simulator._uploads_total.copy()
            simulator.advance_rounds(1)
            per_tick = simulator._uploads_total - before
            assert per_tick.max() <= config.upload_capacity


class TestChurn:
    def churn_config(self, **overrides):
        defaults = dict(
            churn=ChurnConfig(arrival_rate=0.4, mean_lifespan=60.0),
            horizon=150.0,
        )
        defaults.update(overrides)
        return small_config(**defaults)

    def test_churn_changes_membership_and_counts_events(self):
        simulator = StreamingMarketSimulator(self.churn_config())
        result = simulator.run()
        assert result.joins > 0
        assert result.leaves > 0
        assert result.extras["final_population"] == len(result.final_wealths)
        assert result.extras["final_population"] == simulator.topology.num_peers

    def test_conservation_under_churn_tracks_minted_and_destroyed(self):
        simulator = StreamingMarketSimulator(self.churn_config())
        simulator.run()
        # Joins mint fresh endowments, leaves destroy balances; the open
        # economy's conservation law must still balance exactly.
        simulator.verify_conservation()
        assert simulator._minted > simulator.config.num_peers * simulator.config.initial_credits
        assert simulator._destroyed > 0

    def test_departure_mid_purchase_drops_in_flight_chunks(self):
        # Transfers outlive the scheduling interval, so a departing buyer
        # leaves purchased chunks in flight.  They must be dropped — never
        # crash the delivery, never land on whoever reuses the slot.
        config = self.churn_config(transfer_latency=2.0)
        simulator = StreamingMarketSimulator(config)
        simulator.advance_rounds(10)
        in_flight_slots = {
            int(slot)
            for batch in simulator._in_flight
            for buyer_slots, _ in batch
            for slot in buyer_slots
        }
        assert in_flight_slots, "expected purchases in flight"
        victim_slot = sorted(in_flight_slots)[0]
        victim_peer = int(simulator._slots.peer_of[victim_slot])
        simulator._tracker.leave(victim_peer)
        simulator._evict(np.array([victim_peer]))
        remaining = {
            int(slot)
            for batch in simulator._in_flight
            for buyer_slots, _ in batch
            for slot in buyer_slots
        }
        assert victim_slot not in remaining
        # The freed slot can be re-used by a joiner without inheriting the
        # departed peer's pending chunks.
        joiner = simulator._tracker.join()
        (reused_slot,) = simulator._admit(np.array([joiner]))
        assert reused_slot == victim_slot
        assert not simulator._have[:, reused_slot].any()
        simulator.advance_rounds(simulator.total_rounds() - 10)
        simulator.verify_conservation()

    def test_joiner_tunes_in_near_live_edge(self):
        simulator = StreamingMarketSimulator(small_config())
        simulator.advance_rounds(60)
        joiner = simulator._tracker.join()
        (slot,) = simulator._admit(np.array([joiner]))
        live_edge = simulator._emitted - 1
        assert simulator._pb_next[slot] == max(
            0, simulator._emitted - simulator.config.startup_chunks
        )
        assert simulator._pb_next[slot] <= live_edge + 1


class TestUploadSlotAccounting:
    """Audit of the windowed upload-slot accounting.

    The retired event-driven simulator derived the accounting epoch from
    the float clock (``floor(now / scheduling_interval)``), which drifts:
    accumulating 0.1-second intervals by repeated addition yields times
    like 5.999999999999998 whose quotient floors into the *previous*
    epoch, silently granting sellers a doubled capacity window.  The tick
    simulator keys the epoch on the integer tick counter.
    """

    def test_float_epoch_derivation_drifts_but_tick_epoch_does_not(self):
        interval = 0.1
        now = 0.0
        drifted = []
        for tick in range(1, 601):
            now += interval
            if int(np.floor(now / interval)) != tick:
                drifted.append(tick)
        assert drifted, "expected the naive float epoch derivation to drift"
        simulator = StreamingMarketSimulator(small_config(scheduling_interval=interval))
        for expected_tick in range(5):
            assert simulator._tick == expected_tick
            simulator.advance_rounds(1)
        # Past the first tick the float sum mis-buckets, the counter still
        # names the tick, and the clock is derived from it, never summed.
        simulator.advance_rounds(drifted[0] - 5)
        assert simulator._tick == drifted[0]
        assert simulator.now == drifted[0] * interval

    def test_drift_prone_interval_never_over_admits(self):
        # 0.1-second rounds for 600 ticks: per-tick admissions must respect
        # the capacity even where the float clock would mis-bucket epochs.
        config = small_config(
            scheduling_interval=0.1,
            chunk_rate=10.0,
            horizon=60.0,
            upload_capacity=1,
            sample_interval=30.0,
        )
        simulator = StreamingMarketSimulator(config)
        worst = 0.0
        for _ in range(simulator.total_rounds()):
            before = simulator._uploads_total.copy()
            simulator.advance_rounds(1)
            worst = max(worst, float((simulator._uploads_total - before).max()))
        assert worst <= config.upload_capacity
        assert simulator.chunks_delivered > 0


class TestSeedFanout:
    """``config.seed_fanout`` is the only source of the origin's push degree."""

    @staticmethod
    def _seeded_holders(simulator):
        # At time zero the source emits its startup backlog; each chunk is
        # pushed for free to `seed_fanout` distinct alive peers.
        simulator._emit_due_chunks(simulator._slots.pack().alive_slots)
        return simulator._have[: simulator._emitted].sum(axis=1)

    @pytest.mark.parametrize("fanout", [1, 4, 9])
    def test_config_value_sets_push_degree(self, fanout):
        simulator = StreamingMarketSimulator(small_config(seed_fanout=fanout))
        holders = self._seeded_holders(simulator)
        assert holders.size == simulator.config.startup_chunks
        assert holders.tolist() == [fanout] * holders.size

    def test_constructor_has_no_override(self):
        with pytest.raises(TypeError, match="seed_fanout"):
            StreamingMarketSimulator(small_config(), seed_fanout=2)

    def test_fig1_fanout_reaches_simulator(self, monkeypatch):
        from repro.experiments.fig01_spending_rates import run_point

        holders = []
        original = StreamingMarketSimulator.run_config.__func__

        def spy(cls, config, topology=None, snapshot_times=None):
            holders.append(self._seeded_holders(cls(config, topology, snapshot_times)))
            return original(cls, config, topology=topology, snapshot_times=snapshot_times)

        monkeypatch.setattr(StreamingMarketSimulator, "run_config", classmethod(spy))
        # fig1 pushes each chunk to max(4, num_peers // 7) peers.
        run_point(scale="smoke", seed=1, num_peers=70, horizon=20.0)
        assert holders and all(set(counts.tolist()) == {10} for counts in holders)


class TestKernelParity:
    def test_loop_and_vectorized_deliver_identical_results(self):
        config = small_config()
        vectorized = StreamingMarketSimulator.run_config(config)
        loop = LoopStreamingMarketSimulator.run_config(config)
        assert vectorized.final_wealths.tobytes() == loop.final_wealths.tobytes()
        assert vectorized.chunks_delivered == loop.chunks_delivered
