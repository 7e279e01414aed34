"""Tests for the peer-slot store both simulators keep their peer state in."""

import pickle

import numpy as np
import pytest

from repro.core.pricing import PerPeerFlatPricing, UniformPricing
from repro.overlay import ChurnConfig
from repro.overlay.topology import OverlayTopology
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
)
from repro.p2psim.slots import PeerSlots, SlotArray
from drawn_prices import poisson_prices


def path_topology(num_peers):
    return OverlayTopology.from_edges(num_peers, [(i, i + 1) for i in range(num_peers - 1)])


def admit_all(slots):
    slots.admit(slots.topology.peers())
    slots.refresh_rows(slots.topology.peers())


class _Owner:
    """The smallest simulator-like owner of per-slot arrays."""

    weight = SlotArray()
    window = SlotArray()

    def __init__(self, topology, width=3):
        self._slots = PeerSlots(topology)
        self.weight = np.zeros(self._slots.capacity)
        self.window = np.zeros((width, self._slots.capacity), dtype=bool)


class TestAdmitEvict:
    def test_initial_peers_get_slots_in_id_order(self):
        slots = PeerSlots(path_topology(5))
        admit_all(slots)
        assert [slots.slot(peer) for peer in range(5)] == [0, 1, 2, 3, 4]
        assert slots.peer_of[:5].tolist() == [0, 1, 2, 3, 4]
        assert np.flatnonzero(slots.alive).tolist() == [0, 1, 2, 3, 4]

    def test_evicted_slots_are_reused_last_in_first_out(self):
        slots = PeerSlots(path_topology(5))
        admit_all(slots)
        assert slots.evict([1, 3]).tolist() == [1, 3]
        assert slots.slot(1) == -1 and not slots.alive[1]
        assert slots.admit([7, 8]).tolist() == [3, 1]
        assert slots.slot(7) == 3 and slots.peer_of[3] == 7
        assert slots.admit([9]).tolist() == [5]  # then the never-used slots, ascending

    def test_eviction_drops_the_row(self):
        slots = PeerSlots(path_topology(4))
        admit_all(slots)
        assert slots.row(1).tolist() == [0, 2]
        slots.evict([1])
        assert slots.row(1).size == 0
        # The pack leaves the evicted row's entries out even before any
        # refresh has rewritten its neighbours' rows.
        assert slots.pack().alive_slots.tolist() == [0, 2, 3]
        assert slots.pack().edge_dst.tolist() == [1, 1, 3, 2]

    def test_unknown_and_negative_ids_have_no_slot(self):
        slots = PeerSlots(path_topology(3))
        assert slots.slot(0) == -1
        assert slots.slot(-1) == -1
        assert slots.slot(10**6) == -1
        # A peer without a slot is skipped: it gets no row.
        refreshed, positions = slots.refresh_rows([10**6, -1])
        assert refreshed.size == positions.size == 0

    def test_refresh_requires_every_neighbour_admitted(self):
        slots = PeerSlots(path_topology(3))
        slots.admit([1])
        with pytest.raises(RuntimeError, match="neighbour of peer 1 has no slot"):
            slots.refresh_rows([1])


def _state(slots, peer_ids):
    """What a batch call must leave as its single calls do."""
    return (
        slots.capacity,
        slots._free.tolist(),
        slots.alive.tolist(),
        slots.peer_of[slots.alive].tolist(),
        [slots.slot(peer) for peer in peer_ids],
    )


class TestBatchAgainstSingleCalls:
    """One call over ``k`` peers leaves the store as ``k`` one-peer calls do."""

    @pytest.mark.parametrize("k", [1, 7, 10, 11, 60])
    def test_admit_then_evict_then_readmit(self, k):
        # 5 initial peers in a 16-slot store: k = 11 fills it exactly, and
        # k = 60 grows it twice within one call.
        batch, single = PeerSlots(path_topology(5)), PeerSlots(path_topology(5))
        batch.admit(range(5))
        single.admit(range(5))
        joiners = np.arange(100, 100 + k)
        everyone = np.concatenate([np.arange(5), joiners, joiners + 1000])
        assert batch.admit(joiners).tolist() == [single.admit([p])[0] for p in joiners]
        assert _state(batch, everyone) == _state(single, everyone)
        leavers = np.random.default_rng(k).permutation(np.arange(5).tolist() + joiners.tolist())
        leavers = leavers[: leavers.size // 2 + 1]
        assert batch.evict(leavers).tolist() == [single.evict([p])[0] for p in leavers]
        assert _state(batch, everyone) == _state(single, everyone)
        assert batch.admit(joiners + 1000).tolist() == [
            single.admit([p])[0] for p in joiners + 1000
        ]
        assert _state(batch, everyone) == _state(single, everyone)

    def test_empty_batches_change_nothing(self):
        slots = PeerSlots(path_topology(3))
        admit_all(slots)
        pack = slots.pack()
        assert slots.admit([]).size == slots.evict([]).size == 0
        assert slots.pack() is pack


class TestRows:
    def test_rows_ascend_by_slot_not_by_peer_id(self):
        # Peer 4 reuses slot 0, so its row comes first in peer 2's row.
        topology = OverlayTopology.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        slots = PeerSlots(topology)
        admit_all(slots)
        topology.remove_peer(0)
        slots.evict([0])
        topology.add_peer(4)
        topology.add_edge(4, 2)
        slots.admit([4])
        slots.refresh_rows([2])
        assert slots.slot(4) == 0
        assert slots.row(slots.slot(2)).tolist() == [0, 1, 3]
        assert slots.peer_of[slots.row(slots.slot(2))].tolist() == [4, 1, 3]

    def test_pack_is_cached_until_membership_changes(self):
        slots = PeerSlots(path_topology(6))
        admit_all(slots)
        pack = slots.pack()
        assert slots.pack() is pack
        slots.refresh_rows([2])
        assert slots.pack() is not pack
        pack = slots.pack()
        slots.evict([5])
        assert slots.pack() is not pack

    def test_pack_layout(self):
        slots = PeerSlots(path_topology(4))
        admit_all(slots)
        slots.topology.remove_peer(3)
        slots.evict([3])
        slots.refresh_rows([2])
        pack = slots.pack()
        assert pack.alive_slots.tolist() == [0, 1, 2]
        assert pack.degrees.tolist() == [1, 2, 1]
        assert pack.row_start.tolist() == [0, 1, 3, 4]
        assert pack.edge_dst.tolist() == [1, 0, 2, 1]


class TestGrowth:
    def test_growth_keeps_every_registered_array_and_row(self):
        owner = _Owner(path_topology(4))
        slots = owner._slots
        admit_all(slots)
        capacity = slots.capacity
        assert capacity == 16
        for peer in range(4):
            owner.weight[slots.slot(peer)] = peer + 0.5
            owner.window[peer % 3, slots.slot(peer)] = True
        rows = {peer: slots.row(slots.slot(peer)).tolist() for peer in range(4)}
        # Peer ids past the initial slot_of size grow it too.
        slots.admit(np.arange(100, 100 + capacity))
        assert slots.capacity == 2 * capacity
        assert owner.weight.shape == (2 * capacity,)
        assert owner.window.shape == (3, 2 * capacity)
        assert slots.alive.shape == slots.peer_of.shape == (2 * capacity,)
        for peer in range(4):
            slot = slots.slot(peer)
            assert owner.weight[slot] == peer + 0.5
            assert owner.window[:, slot].tolist() == [i == peer % 3 for i in range(3)]
            assert slots.row(slot).tolist() == rows[peer]
        assert not owner.weight[capacity:].any()
        assert not owner.window[:, capacity:].any()
        assert slots.slot(100 + capacity - 1) == capacity + 3
        assert int(np.count_nonzero(slots.alive)) == capacity + 4

    def test_column_major_arrays_keep_their_contents_when_churn_grows_the_store(
        self, monkeypatch
    ):
        # The streaming window is column-major, ``have[col, slot]``: growth
        # appends slots along the last axis and leaves every column's
        # existing slots where they were.
        grown = []
        grow = PeerSlots._grow

        def recording_grow(slots):
            before = {key: slots.arrays[key].copy() for key in ("_have",)}
            grow(slots)
            grown.append((before, {key: slots.arrays[key].copy() for key in before}))

        monkeypatch.setattr(PeerSlots, "_grow", recording_grow)
        sim = _streaming(
            num_peers=10, horizon=40.0, churn=ChurnConfig(arrival_rate=3.0, mean_lifespan=400.0)
        )
        initial = sim._slots.capacity
        sim.advance_rounds(sim.total_rounds())
        assert grown and sim._slots.capacity > initial
        for before, after in grown:
            for key, old in before.items():
                width, capacity = old.shape
                assert after[key].shape == (width, 2 * capacity)
                assert after[key][:, :capacity].tobytes() == old.tobytes()
                assert not after[key][:, capacity:].any()
        assert any(before["_have"].any() for before, _ in grown)
        sim.verify_conservation()

    def test_slot_array_reads_and_writes_the_store(self):
        owner = _Owner(path_topology(3))
        assert owner._slots.arrays["weight"] is owner.weight
        replacement = np.ones(owner._slots.capacity)
        owner.weight = replacement
        assert owner._slots.arrays["weight"] is replacement
        assert isinstance(_Owner.weight, SlotArray)


def _market(**overrides):
    settings = dict(
        num_peers=80, initial_credits=10.0, horizon=120.0, step=1.0,
        topology_mean_degree=4.0, sample_interval=40.0, seed=3,
        churn=ChurnConfig(arrival_rate=1.0, mean_lifespan=40.0),
    )
    settings.update(overrides)
    return CreditMarketSimulator(MarketSimConfig(**settings))


def _streaming(**overrides):
    settings = dict(
        num_peers=60, initial_credits=10.0, horizon=60.0,
        topology_mean_degree=4.0, sample_interval=20.0, seed=3,
        churn=ChurnConfig(arrival_rate=1.0, mean_lifespan=30.0),
    )
    settings.update(overrides)
    return StreamingMarketSimulator(StreamingSimConfig(**settings))


SIMULATORS = {"market": _market, "streaming": _streaming}


def _pack_from_topology(slots):
    """The pack a fresh store would build for the overlay as it stands."""
    topology = slots.topology
    alive_slots = np.flatnonzero(slots.alive)
    rows = [
        sorted(slots.slot(neighbor) for neighbor in topology.neighbors(int(slots.peer_of[slot])))
        for slot in alive_slots.tolist()
    ]
    degrees = [len(row) for row in rows]
    return alive_slots, degrees, [slot for row in rows for slot in row]


class TestChurnedRuns:
    @pytest.mark.parametrize("name", sorted(SIMULATORS))
    def test_pack_equals_one_rebuilt_from_the_topology(self, name):
        sim = SIMULATORS[name]()
        sim.advance_rounds(sim.total_rounds())
        assert sim.joins > 0 and sim.leaves > 0
        slots = sim._slots
        assert sorted(slots.peer_of[slots.alive].tolist()) == sim.topology.peers()
        pack = slots.pack()
        alive_slots, degrees, edges = _pack_from_topology(slots)
        assert pack.alive_slots.tolist() == alive_slots.tolist()
        assert pack.degrees.tolist() == degrees
        assert pack.row_start.tolist() == np.concatenate([[0], np.cumsum(degrees)]).tolist()
        assert pack.edge_dst.tolist() == edges

    @pytest.mark.parametrize("name", sorted(SIMULATORS))
    def test_every_refresh_follows_the_rounds_admissions(self, name, monkeypatch):
        # Rows are refreshed only once every peer of the round is admitted,
        # so a refreshed peer's neighbours always have slots.
        refresh_rows = PeerSlots.refresh_rows
        checked = []

        def checking_refresh_rows(slots, peer_ids):
            for peer_id in peer_ids:
                if slots.slot(peer_id) >= 0:
                    neighbors = slots.topology.neighbors(peer_id)
                    checked.append(all(slots.slot(neighbor) >= 0 for neighbor in neighbors))
            return refresh_rows(slots, peer_ids)

        monkeypatch.setattr(PeerSlots, "refresh_rows", checking_refresh_rows)
        sim = SIMULATORS[name]()
        sim.advance_rounds(sim.total_rounds())
        assert sim.joins > 0
        assert len(checked) > sim.topology.num_peers
        assert all(checked)

    @pytest.mark.parametrize("name", sorted(SIMULATORS))
    def test_store_survives_a_pickle_round_trip(self, name):
        sim = SIMULATORS[name]()
        sim.advance_rounds(sim.total_rounds() // 2)
        slots = sim._slots
        clone = pickle.loads(pickle.dumps(slots))
        assert clone.capacity == slots.capacity
        assert clone.topology.peers() == slots.topology.peers()
        assert sorted(clone.arrays) == sorted(slots.arrays)
        for key, array in slots.arrays.items():
            assert clone.arrays[key].tobytes() == array.tobytes()
        assert clone.slot_of.tobytes() == slots.slot_of.tobytes()
        for slot in np.flatnonzero(slots.alive).tolist():
            assert clone.row(slot).tolist() == slots.row(slot).tolist()
        for field in ("alive_slots", "degrees", "row_start", "edge_dst"):
            assert getattr(clone.pack(), field).tobytes() == getattr(slots.pack(), field).tobytes()
        # Admitting into the clone takes the same slot as into the original.
        assert clone.admit([10**4]).tolist() == slots.admit([10**4]).tolist()


ADMISSION_PRICINGS = {
    "fig1-poisson": lambda: poisson_prices(1.0, seed=9, min_price=0.0),
    "uniform-fractional": lambda: UniformPricing(1.1),
}


class TestAdmissionPrices:
    """Each peer is quoted once, on admission, into the per-slot ``_price``."""

    @pytest.mark.parametrize("pricing", sorted(ADMISSION_PRICINGS))
    @pytest.mark.parametrize("name", sorted(SIMULATORS))
    def test_alive_slots_hold_their_owners_posted_prices(self, name, pricing):
        scheme = ADMISSION_PRICINGS[pricing]()
        sim = SIMULATORS[name](pricing=scheme)
        initial_peers = sim.config.num_peers
        sim.advance_rounds(sim.total_rounds())
        slots = sim._slots
        alive = np.flatnonzero(slots.alive)
        owners = slots.peer_of[alive]
        # Initial peers took slots 0 … n-1, so a joiner below that slot
        # reuses a departed peer's slot.
        assert np.any((owners >= initial_peers) & (alive < initial_peers))
        assert sim._price[alive].tobytes() == scheme.price_array(owners).tobytes()

    @pytest.mark.parametrize("name", sorted(SIMULATORS))
    def test_every_admission_is_quoted_once_and_nothing_else_quotes(self, name, monkeypatch):
        admit, price_array = PeerSlots.admit, PerPeerFlatPricing.price_array
        admitted, quoted = [], []

        def recording_admit(slots, peer_ids):
            admitted.append(np.asarray(peer_ids).tolist())
            return admit(slots, peer_ids)

        def recording_price_array(scheme, seller_ids):
            quoted.append(np.asarray(seller_ids).tolist())
            return price_array(scheme, seller_ids)

        monkeypatch.setattr(PeerSlots, "admit", recording_admit)
        monkeypatch.setattr(PerPeerFlatPricing, "price_array", recording_price_array)
        sim = SIMULATORS[name](pricing=poisson_prices(1.0, seed=9, min_price=0.0))
        sim.advance_rounds(sim.total_rounds())
        assert sim.joins > 0
        assert quoted == admitted
        assert sum(len(batch) for batch in quoted) == sim.config.num_peers + sim.joins


class TestRunConfig:
    """``SlotSimulator.run_config`` builds the simulator and runs it whole."""

    @pytest.mark.parametrize("name", sorted(SIMULATORS))
    def test_overlay_and_snapshot_times_reach_the_simulator(self, name):
        simulator = SIMULATORS[name]()
        cls, config = type(simulator), simulator.config
        times = [config.horizon / 2]
        result = cls.run_config(
            config, topology=path_topology(config.num_peers), snapshot_times=times
        )
        reference = cls(
            config, topology=path_topology(config.num_peers), snapshot_times=times
        ).run()
        assert list(result.recorder.snapshots) == times
        assert result.final_wealths.tobytes() == reference.final_wealths.tobytes()
        assert result.recorder.gini_series.y == reference.recorder.gini_series.y
        # Without a topology the configured scale-free overlay is generated.
        assert cls.run_config(config).recorder.gini_series.y != result.recorder.gini_series.y
