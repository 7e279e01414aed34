"""Tests for intra-run round-block partitioning (repro.runner.partition)."""

import pytest

from repro.p2psim import CreditMarketSimulator, MarketSimConfig
from repro.runner import ArtifactCache, SweepSpec, run_sweep
from repro.runner import execute
from repro.runner.partition import (
    BlockContext,
    CheckpointStore,
    OutOfBlockBudget,
    round_blocks,
)


def small_config(**overrides):
    defaults = dict(
        num_peers=40,
        initial_credits=15.0,
        horizon=200.0,
        step=2.0,
        topology_mean_degree=6.0,
        sample_interval=50.0,
        seed=7,
    )
    defaults.update(overrides)
    return MarketSimConfig(**defaults)


class TestRoundBlocks:
    def test_partitions_sum_and_balance(self):
        assert round_blocks(10, 3) == [4, 3, 3]
        assert round_blocks(9, 3) == [3, 3, 3]
        assert round_blocks(2, 4) == [1, 1, 0, 0]
        assert round_blocks(0, 2) == [0, 0]
        for total in (1, 17, 100):
            for blocks in (1, 2, 5, 9):
                sizes = round_blocks(total, blocks)
                assert sum(sizes) == total
                assert len(sizes) == blocks
                assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            round_blocks(10, 0)
        with pytest.raises(ValueError):
            round_blocks(-1, 2)


class TestCheckpointStore:
    def test_store_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("scope", 0, 1, 4) is None
        store.store("scope", 0, 1, 4, {"state": [1, 2, 3]})
        assert store.contains("scope", 0, 1, 4)
        assert store.load("scope", 0, 1, 4) == {"state": [1, 2, 3]}
        assert store.discard("scope", 0, 1, 4)
        assert not store.contains("scope", 0, 1, 4)

    def test_corrupt_checkpoint_counts_as_miss_and_is_removed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.store("scope", 0, 1, 2, {"ok": True})
        path.write_bytes(b"not a pickle")
        assert store.load("scope", 0, 1, 2) is None
        assert not store.contains("scope", 0, 1, 2)

    def test_keys_differ_by_every_label(self, tmp_path):
        store = CheckpointStore(tmp_path)
        base = store.key("scope", 0, 1, 4)
        assert base != store.key("other", 0, 1, 4)
        assert base != store.key("scope", 1, 1, 4)
        assert base != store.key("scope", 0, 2, 4)
        assert base != store.key("scope", 0, 1, 8)
        assert base == store.key("scope", 0, 1, 4)  # stable

    def test_scopes_shard_into_separate_directories(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.store("a", 0, 1, 2, 1)
        store.store("a", 0, 2, 2, 2)
        store.store("b", 0, 1, 2, 3)
        assert store.prune_scope("a") == 2
        assert store.load("b", 0, 1, 2) == 3  # other scopes untouched
        assert store.prune_scope("a") == 0

    def test_prune_stale_collects_old_scopes_only(self, tmp_path):
        import os
        import time

        store = CheckpointStore(tmp_path)
        store.store("old", 0, 1, 2, 1)
        store.store("new", 0, 1, 2, 2)
        ancient = time.time() - 10 * 24 * 3600
        old_dir = store._scope_dir("old")
        for entry in [old_dir, *old_dir.iterdir()]:
            os.utime(entry, (ancient, ancient))
        assert store.prune_stale() == 1
        assert store.load("old", 0, 1, 2) is None
        assert store.load("new", 0, 1, 2) == 2


class TestBlockContext:
    def test_contexts_do_not_nest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with BlockContext(store, blocks=2, scope="a"):
            with pytest.raises(RuntimeError):
                BlockContext(store, blocks=2, scope="b").__enter__()

    def test_budget_of_one_advances_one_block_per_invocation(self, tmp_path):
        store = CheckpointStore(tmp_path)
        config = small_config()
        blocks = 3
        invocations = 0
        while True:
            context = BlockContext(store, blocks=blocks, scope="chain", budget=1)
            invocations += 1
            try:
                with context:
                    result = CreditMarketSimulator.run_config(config)
                break
            except OutOfBlockBudget:
                continue
        assert invocations == blocks
        reference = CreditMarketSimulator.run_config(config)
        assert result.final_wealths.tobytes() == reference.final_wealths.tobytes()
        assert result.total_transfers == reference.total_transfers

    def test_resume_skips_completed_blocks(self, tmp_path):
        # Interrupt after one block, then finish in a fresh context against
        # the same store: the completed block must not re-execute (its
        # checkpoint is already present) and the result must match the
        # monolithic run.
        store = CheckpointStore(tmp_path)
        config = small_config(seed=21)
        with pytest.raises(OutOfBlockBudget):
            with BlockContext(store, blocks=4, scope="resume", budget=1):
                CreditMarketSimulator.run_config(config)
        assert store.contains("resume", 0, 1, 4)

        resumed = BlockContext(store, blocks=4, scope="resume", budget=3)
        with resumed:
            result = CreditMarketSimulator.run_config(config)
        assert resumed.budget == 0  # exactly the three missing blocks ran
        reference = CreditMarketSimulator.run_config(config)
        assert result.final_wealths.tobytes() == reference.final_wealths.tobytes()

    def test_prune_scope_removes_chain(self, tmp_path):
        store = CheckpointStore(tmp_path)
        config = small_config()
        with BlockContext(store, blocks=2, scope="prune", budget=None):
            CreditMarketSimulator.run_config(config)
        # Two block states plus the finalised-result slot.
        assert store.prune_scope("prune") == 3
        assert store.prune_scope("prune") == 0

    def test_restored_run_syncs_policy_counters(self, tmp_path):
        # fig9-style flow: the experiment reads mutable counters off the tax
        # policy object it constructed.  A restored checkpoint mutates pickle
        # copies, so the context must sync the state back onto the caller's
        # objects — partitioned totals must equal monolithic ones.
        from repro.core.taxation import ThresholdIncomeTax

        def make_config():
            return small_config(
                initial_credits=30.0,
                tax_policy=ThresholdIncomeTax(rate=0.2, threshold=20.0),
            )

        monolithic_config = make_config()
        CreditMarketSimulator.run_config(monolithic_config)
        assert monolithic_config.tax_policy.total_collected > 0

        store = CheckpointStore(tmp_path)
        # Drive the chain the way the executor does: one new block per
        # invocation, each invocation re-constructing its config/policy.
        while True:
            config = make_config()
            try:
                with BlockContext(store, blocks=3, scope="sync", budget=1):
                    result = CreditMarketSimulator.run_config(config)
                break
            except OutOfBlockBudget:
                continue
        assert config.tax_policy.total_collected == monolithic_config.tax_policy.total_collected
        assert config.tax_policy.total_rebated == monolithic_config.tax_policy.total_rebated
        assert result.extras["tax_pool"] == pytest.approx(
            monolithic_config.tax_policy.total_collected
            - monolithic_config.tax_policy.total_rebated
        )


class TestExecuteRoundBlocks:
    def test_single_block_matches_monolithic(self):
        config = small_config()
        reference = CreditMarketSimulator.run_config(config)
        partitioned = execute(config, blocks=1)
        assert partitioned.final_wealths.tobytes() == reference.final_wealths.tobytes()

    def test_more_blocks_than_rounds(self, tmp_path):
        # 200s / 2s = 100 rounds split into 150 blocks: trailing zero-length
        # blocks must be harmless — and free (no budget, no checkpoint).
        config = small_config()
        reference = CreditMarketSimulator.run_config(config)
        store = CheckpointStore(tmp_path)
        partitioned = execute(config, blocks=150, store=store, scope="wide")
        assert partitioned.final_wealths.tobytes() == reference.final_wealths.tobytes()
        # 100 non-empty block states + the finalised result; 50 zero blocks
        # wrote nothing.
        assert store.prune_scope("wide") == 101

    def test_persistent_store_resumes_across_calls(self, tmp_path):
        store = CheckpointStore(tmp_path)
        config = small_config(seed=5)
        first = execute(config, blocks=4, store=store, scope="persist")
        # All four checkpoints exist now; a second call restores the final
        # state without simulating a single round.
        again = execute(config, blocks=4, store=store, scope="persist")
        assert again.final_wealths.tobytes() == first.final_wealths.tobytes()
        assert again.total_transfers == first.total_transfers


class TestExecutorIntraJobs:
    SPEC = SweepSpec(
        "fig7",
        grid=[{"average_wealth": 8.0}],
        replications=2,
        base_seed=3,
        scale="smoke",
    )

    def test_intra_jobs_requires_at_least_one(self):
        with pytest.raises(ValueError):
            run_sweep(self.SPEC, jobs=1, intra_jobs=0)

    def test_checkpoints_pruned_after_commit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        report = run_sweep(self.SPEC, jobs=1, intra_jobs=2, cache=cache)
        assert report.executed == 2
        checkpoints = list((tmp_path / "checkpoints").glob("*/*.pkl"))
        assert checkpoints == []

    def test_report_records_intra_jobs(self):
        report = run_sweep(self.SPEC, jobs=1, intra_jobs=2)
        assert report.intra_jobs == 2
        assert "intra_jobs=2" in report.describe()

    def test_monolithic_completion_prunes_orphaned_checkpoints(self, tmp_path):
        # An interrupted partitioned run leaves block states behind; a later
        # run that completes the shard monolithically must still prune them
        # (the committed result artifact supersedes the checkpoints).
        from repro.runner import task_key

        cache = ArtifactCache(tmp_path)
        store = CheckpointStore(tmp_path / "checkpoints")
        scope = task_key(self.SPEC.tasks()[0])
        store.store(scope, 0, 1, 2, {"orphan": True})
        run_sweep(self.SPEC, jobs=1, cache=cache)
        assert not store.contains(scope, 0, 1, 2)
