"""One entry point for running a simulator configuration to completion.

:func:`execute` dispatches on the config type — a
:class:`~repro.p2psim.config.MarketSimConfig` runs the credit market, a
:class:`~repro.p2psim.config.StreamingSimConfig` the streaming swarm — and
optionally splits the run into checkpointed round-blocks:

>>> from repro.runner.plan import execute
>>> result = execute(config, blocks=4)                    # doctest: +SKIP

Kernel selection lives on the config's
:class:`~repro.p2psim.options.KernelOptions`; ``blocks`` only changes how
the run executes, never what it produces: ``execute(config, blocks=n)`` is
byte-identical to ``execute(config)`` for every ``n``.
"""

from __future__ import annotations

import numbers
import tempfile
from typing import Optional, Sequence

from repro.runner.partition import BlockContext, CheckpointStore

__all__ = ["execute"]


def execute(
    sim_config: object,
    *,
    blocks: int = 1,
    topology: object = None,
    snapshot_times: Optional[Sequence[float]] = None,
    store: Optional[CheckpointStore] = None,
    scope: str = "execute",
) -> object:
    """Run ``sim_config`` to completion, optionally as ``blocks`` round-blocks.

    With ``blocks > 1`` (or a ``store``) the run advances in checkpointed
    round-blocks persisted in ``store`` under ``scope`` — a throwaway
    directory when no store is given — so a persistent store resumes an
    interrupted run from its last completed block.  Results are
    byte-identical to the single-block run.
    """
    from repro.p2psim.config import MarketSimConfig, StreamingSimConfig
    from repro.p2psim.market_sim import CreditMarketSimulator
    from repro.p2psim.streaming_sim import StreamingMarketSimulator

    if isinstance(blocks, bool) or not isinstance(blocks, numbers.Integral):
        raise TypeError(f"blocks must be an int, got {type(blocks).__name__}")
    if blocks < 1:
        raise ValueError(f"blocks must be >= 1, got {blocks}")
    if isinstance(sim_config, MarketSimConfig):
        runner = CreditMarketSimulator.run_config
    elif isinstance(sim_config, StreamingSimConfig):
        runner = StreamingMarketSimulator.run_config
    else:
        raise TypeError(
            "execute() needs a MarketSimConfig or StreamingSimConfig, "
            f"got {type(sim_config).__name__}"
        )
    if blocks == 1 and store is None:
        return runner(sim_config, topology=topology, snapshot_times=snapshot_times)

    def run_blocks(checkpoints: CheckpointStore) -> object:
        with BlockContext(checkpoints, blocks=blocks, scope=scope, budget=None):
            return runner(sim_config, topology=topology, snapshot_times=snapshot_times)

    if store is not None:
        return run_blocks(store)
    with tempfile.TemporaryDirectory(prefix="repro-intra-") as tmp:
        return run_blocks(CheckpointStore(tmp))
