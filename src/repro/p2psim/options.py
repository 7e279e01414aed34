"""Shared kernel/dtype/telemetry options for the integrated simulators.

:class:`KernelOptions` is the one bundle of execution switches that both
:class:`~repro.p2psim.config.MarketSimConfig` and
:class:`~repro.p2psim.config.StreamingSimConfig` carry:

* ``kernel`` — ``"vectorized"`` (default) or ``"loop"``; both kernels
  consume the same random draws and produce bit-identical results.  The
  experiments, sweeps and CLI always run the default; setting this field
  on a simulator config is the only way to reach the loop kernel, which
  the benchmarks and the bit-identity tests compare against.
* ``dtype`` — ``"float64"`` (default) keeps the historical float64 state
  and int64 peer ids; ``"float32"`` narrows wealth/price/CDF state to
  float32 and peer-id/edge arrays to int32, roughly halving the memory of
  a million-peer run.  The segmented-CDF search keys stay float64 in both
  modes (see ``market_sim._RoutingPack``), so cross-kernel identity holds
  at either dtype; only the default dtype is bit-identical to the
  historical padded kernels.
* ``telemetry`` — when False, the simulators skip their per-round
  telemetry emission even while an emitter is enabled (useful to exclude
  instrumentation from micro-benchmarks without reconfiguring the global
  emitter).

The options object is immutable (hashable, safely shareable between
configs); derive variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["KernelOptions", "KERNELS", "DTYPES"]

#: Valid kernel implementations, in documentation order.
KERNELS: Tuple[str, ...] = ("vectorized", "loop")

#: Valid state-dtype switches.
DTYPES: Tuple[str, ...] = ("float64", "float32")


@dataclass(frozen=True)
class KernelOptions:
    """Kernel selection and numeric-representation switches.

    Attributes
    ----------
    kernel:
        Hot-round implementation: ``"vectorized"`` (default) or ``"loop"``.
    dtype:
        ``"float64"`` (default, bit-compatible with the historical padded
        kernels) or ``"float32"`` (narrow state: float32 wealth/price/CDF,
        int32 peer ids).
    telemetry:
        Whether the simulators emit their per-round telemetry when an
        emitter is enabled (default True).
    """

    kernel: str = "vectorized"
    dtype: str = "float64"
    telemetry: bool = True

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.dtype not in DTYPES:
            raise ValueError(
                f"dtype must be one of {DTYPES}, got {self.dtype!r}"
            )

    @classmethod
    def resolve(cls, dtype: "str | None" = None) -> "KernelOptions":
        """Build options from an optional ``dtype`` (``None`` = default).

        The experiment point runners and the CLI expose ``dtype`` as an
        optional axis whose unset value must mean "the simulator
        default"; this constructor centralises that mapping.  They always
        run the default (vectorized) kernel: the loop kernel is reachable
        only by building ``KernelOptions(kernel="loop")`` directly.
        """
        return cls(dtype=cls.dtype if dtype is None else str(dtype))

    @property
    def float_dtype(self) -> np.dtype:
        """Numpy dtype of wealth/price/CDF state arrays."""
        return np.dtype(np.float32 if self.dtype == "float32" else np.float64)

    @property
    def index_dtype(self) -> np.dtype:
        """Numpy dtype of peer-id / edge-destination arrays."""
        return np.dtype(np.int32 if self.dtype == "float32" else np.int64)

    @property
    def is_narrow(self) -> bool:
        """Whether the narrow (float32/int32) representation is selected."""
        return self.dtype == "float32"
