"""``execute``: the one entry point that runs a simulator configuration.

Pins ``execute``'s own contract: ``blocks`` and keyword validation,
dispatch on the config type, persistence of round-blocks in a
caller-supplied checkpoint store under a scope, and use of a caller's
topology.  Byte-identity of round-blocks against
monolithic runs is pinned per simulator in ``test_determinism_modes.py``
and ``test_streaming_determinism.py``.
"""

import numpy as np
import pytest

from repro.overlay import ring_topology
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
)
from repro.runner import CheckpointStore, execute


def market_config(**overrides):
    defaults = dict(
        num_peers=60,
        initial_credits=10.0,
        horizon=200.0,
        step=2.0,
        topology_mean_degree=8.0,
        sample_interval=40.0,
        seed=13,
    )
    defaults.update(overrides)
    return MarketSimConfig(**defaults)


def streaming_config(**overrides):
    defaults = dict(
        num_peers=36,
        initial_credits=20.0,
        horizon=100.0,
        topology_mean_degree=8.0,
        sample_interval=25.0,
        seed=17,
    )
    defaults.update(overrides)
    return StreamingSimConfig(**defaults)


def fingerprint(result):
    return (
        result.final_wealths.tobytes(),
        result.spending_rates.tobytes(),
        tuple(result.recorder.gini_series.y),
    )


SIMULATORS = {
    "market": (market_config, CreditMarketSimulator),
    "streaming": (streaming_config, StreamingMarketSimulator),
}


class TestBlocksValidation:
    @pytest.mark.parametrize("blocks", [0, -3])
    def test_non_positive_blocks_rejected(self, blocks):
        with pytest.raises(ValueError, match="blocks must be >= 1"):
            execute(market_config(), blocks=blocks)

    def test_blocks_is_keyword_only(self):
        with pytest.raises(TypeError):
            execute(market_config(), 2)  # type: ignore[misc]

    # A float or bool would otherwise be truncated silently by the block
    # context; a string would fail only deep inside the run.
    @pytest.mark.parametrize("blocks", [1.5, 2.0, "2", True, None])
    def test_non_integer_blocks_rejected(self, blocks):
        with pytest.raises(TypeError, match="blocks must be an int"):
            execute(market_config(), blocks=blocks)

    def test_numpy_integer_blocks_accepted(self):
        config = market_config()
        result = execute(config, blocks=np.int64(2))
        assert fingerprint(result) == fingerprint(CreditMarketSimulator(config).run())

    # Execution settings that once rode along on a plan object are gone:
    # ``execute`` takes round-blocks and persistence, nothing else.
    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("plan", None),
            ("options", None),
            ("intra_jobs", 2),
            ("rounds_per_block", 10),
            ("shards", 2),
            ("partitioner", "hash"),
            ("shard_backend", "thread"),
        ],
    )
    def test_unknown_keywords_rejected(self, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            execute(market_config(), **{keyword: value})


class TestDispatch:
    def test_rejects_unknown_config(self):
        with pytest.raises(TypeError, match="MarketSimConfig or StreamingSimConfig"):
            execute({"num_peers": 10})

    @pytest.mark.parametrize(
        "factory, simulator",
        [
            (market_config, CreditMarketSimulator),
            (streaming_config, StreamingMarketSimulator),
        ],
    )
    def test_dispatches_on_config_type(self, factory, simulator):
        config = factory()
        result = execute(config)
        assert type(result) is type(simulator(config).run())
        assert fingerprint(result) == fingerprint(simulator(config).run())


class TestStorePersistence:
    def test_blocks_persist_into_store_under_scope(self, tmp_path):
        store = CheckpointStore(tmp_path)
        config = market_config()
        result = execute(config, blocks=2, store=store, scope="t")
        assert fingerprint(result) == fingerprint(CreditMarketSimulator(config).run())
        # Two block states plus the finalised result, all under scope "t".
        assert store.prune_scope("t") == 3

    def test_store_alone_checkpoints_one_block(self, tmp_path):
        store = CheckpointStore(tmp_path)
        execute(market_config(), store=store, scope="single")
        assert store.prune_scope("single") == 2

    def test_scopes_do_not_collide(self, tmp_path):
        store = CheckpointStore(tmp_path)
        first, second = market_config(seed=13), market_config(seed=14)
        a = execute(first, blocks=2, store=store, scope="a")
        b = execute(second, blocks=2, store=store, scope="b")
        assert fingerprint(a) == fingerprint(CreditMarketSimulator(first).run())
        assert fingerprint(b) == fingerprint(CreditMarketSimulator(second).run())
        assert fingerprint(a) != fingerprint(b)

    def test_streaming_blocks_persist(self, tmp_path):
        store = CheckpointStore(tmp_path)
        config = streaming_config()
        result = execute(config, blocks=2, store=store, scope="s")
        assert fingerprint(result) == fingerprint(StreamingMarketSimulator(config).run())
        assert store.prune_scope("s") == 3

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", sorted(SIMULATORS))
    def test_one_checkpoint_per_block_plus_result(self, tmp_path, kind, blocks):
        factory, simulator = SIMULATORS[kind]
        store = CheckpointStore(tmp_path)
        config = factory()
        result = execute(config, blocks=blocks, store=store, scope="count")
        assert fingerprint(result) == fingerprint(simulator(config).run())
        assert store.prune_scope("count") == blocks + 1

    @pytest.mark.parametrize("kind", sorted(SIMULATORS))
    def test_rerun_restores_without_simulating(self, tmp_path, kind, monkeypatch):
        factory, simulator = SIMULATORS[kind]
        store = CheckpointStore(tmp_path)
        config = factory()
        first = execute(config, blocks=3, store=store, scope="again")

        def refuse(self, rounds):
            raise AssertionError("a completed run must not advance again")

        monkeypatch.setattr(simulator, "advance_rounds", refuse)
        again = execute(factory(), blocks=3, store=store, scope="again")
        assert fingerprint(again) == fingerprint(first)


class TestTopologyPassthrough:
    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("kind", sorted(SIMULATORS))
    def test_given_topology_is_used(self, kind, blocks):
        factory, simulator = SIMULATORS[kind]
        config = factory()
        topology = ring_topology(config.num_peers)
        result = execute(config, blocks=blocks, topology=topology)
        reference = simulator(config, topology=ring_topology(config.num_peers)).run()
        assert fingerprint(result) == fingerprint(reference)
        assert fingerprint(result) != fingerprint(simulator(config).run())
