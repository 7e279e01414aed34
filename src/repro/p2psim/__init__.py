"""Integrated credit-incentivized P2P simulators.

Two simulators reproduce the paper's Sec. VI study at different levels of
detail:

* :class:`~repro.p2psim.market_sim.CreditMarketSimulator` — a
  transaction-level simulator of the credit circulation itself (one event =
  one credit changing hands), equivalent to simulating the Jackson-network
  CTMC of Table I directly.  It supports symmetric/asymmetric utilization,
  taxation, dynamic spending rates and peer churn, and is fast enough to
  sweep the parameter ranges of Figs. 3 and 7–11.
* :class:`~repro.p2psim.streaming_sim.StreamingMarketSimulator` — a
  chunk-level simulator of the UUSee-like mesh-pull streaming protocol
  with per-chunk credit settlement (availability windows, chunk
  scheduling, upload-slot admission, playback), used for Figs. 1, 5 and 6
  — and, with a churn configuration, Fig. 11 — where chunk-level
  behaviour (spending rates, convergence of the wealth profile) is the
  quantity of interest.

Both simulators advance in synchronous rounds over slot-indexed arrays
(float64 wealth/price/CDF state, int64 peer ids) kept by one
:class:`~repro.p2psim.slots.PeerSlots` store, run one vectorized kernel
for their hot round (held byte for byte to a per-peer loop oracle in
``tests/kernel_oracles.py``), and share the
:class:`~repro.p2psim.recorder.WealthRecorder` for Gini / snapshot time
series.  Both inherit :class:`~repro.p2psim.slots.SlotSimulator`, whose
round contract (``total_rounds`` / ``advance_rounds`` / ``finalize``,
picklable state between rounds) they satisfy.
"""

from repro.p2psim.config import MarketSimConfig, StreamingSimConfig, UtilizationMode
from repro.p2psim.recorder import WealthRecorder
from repro.p2psim.market_sim import CreditMarketSimulator, MarketSimResult
from repro.p2psim.streaming_sim import StreamingMarketSimulator, StreamingSimResult

__all__ = [
    "UtilizationMode",
    "MarketSimConfig",
    "StreamingSimConfig",
    "WealthRecorder",
    "CreditMarketSimulator",
    "MarketSimResult",
    "StreamingMarketSimulator",
    "StreamingSimResult",
]

