"""Shared kernel options for the integrated simulators.

:class:`KernelOptions` is the one bundle of execution switches that both
:class:`~repro.p2psim.config.MarketSimConfig` and
:class:`~repro.p2psim.config.StreamingSimConfig` carry.  Its one field,
``kernel``, is ``"vectorized"`` (default) or ``"loop"``; both kernels
consume the same random draws and produce bit-identical results.  The
experiments, sweeps and CLI always run the default; setting this field
on a simulator config is the only way to reach the loop kernel, which
the benchmarks and the bit-identity tests compare against.

Both simulators keep their state in one representation: float64
wealth/price/CDF arrays and int64 peer ids.

The options object is immutable (hashable, safely shareable between
configs); derive variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["KernelOptions", "KERNELS"]

#: Valid kernel implementations, in documentation order.
KERNELS: Tuple[str, ...] = ("vectorized", "loop")


@dataclass(frozen=True)
class KernelOptions:
    """Kernel selection for the simulators.

    Attributes
    ----------
    kernel:
        Hot-round implementation: ``"vectorized"`` (default) or ``"loop"``.
    """

    kernel: str = "vectorized"

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
