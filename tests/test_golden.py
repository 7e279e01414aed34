"""Golden digests: simulator end states and figure tables pinned across versions.

The determinism suites compare execution modes *within* one revision; this
module compares every revision against the digests committed in
``tests/golden/digests.json``.  A refactor that keeps behaviour leaves
every digest in place.  A change that moves one must re-pin it on purpose
and say so in CHANGES.md.

Each simulator case is a small (200–300 peer, 200–300 round) run whose
end state — final wealths, measured rates, tax pool and the
transfer/chunk/join/leave counts — is hashed with SHA-256.  Every case is
checked against both the vectorized simulator and its loop oracle
subclass from ``kernel_oracles``, which must land on the same digest.
The CLI cases hash the stdout of ``repro run <fig> --scale smoke`` for
every figure.  The sweep case hashes the aggregate table of a
multi-shard, multi-replication smoke sweep, which pins seed derivation
per shard.

To see which digests moved after a deliberate change, and to re-pin them::

    PYTHONPATH=src python tests/test_golden.py          # report only
    PYTHONPATH=src python tests/test_golden.py --write  # rewrite the file
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.core.taxation import ThresholdIncomeTax
from repro.experiments.fig01_spending_rates import _poisson_seller_prices
from repro.overlay import ChurnConfig
from repro.p2psim import MarketSimConfig, StreamingSimConfig, UtilizationMode
from kernel_oracles import MARKET_KERNELS, STREAMING_KERNELS

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"

KERNELS = ("vectorized", "loop")


def _market(**overrides) -> MarketSimConfig:
    settings = dict(
        num_peers=300,
        initial_credits=20.0,
        horizon=300.0,
        step=1.0,
        utilization=UtilizationMode.ASYMMETRIC,
        topology_mean_degree=10.0,
        sample_interval=50.0,
        seed=101,
    )
    settings.update(overrides)
    return MarketSimConfig(**settings)


def _streaming(**overrides) -> StreamingSimConfig:
    settings = dict(num_peers=200, horizon=200.0, topology_mean_degree=10.0, seed=202)
    settings.update(overrides)
    return StreamingSimConfig(**settings)


def _flat_prices(seed: int):
    """Fig. 1's per-seller ``Poisson(1)`` prices, zeros included, for ids 0–1999."""
    return _poisson_seller_prices(2000, 1.0, seed)


#: Simulator cases: name -> factory building a fresh config.
MARKET_CASES: Dict[str, Callable[[], MarketSimConfig]] = {
    "market-static": lambda: _market(),
    "market-churn": lambda: _market(
        churn=ChurnConfig(arrival_rate=1.0, mean_lifespan=250.0)
    ),
    # Heterogeneous per-seller prices under churn: a reused slot must
    # carry its new owner's price.  Joiners get ids above the initial
    # population, so prices are drawn over ids well past it.
    "market-churn-flat": lambda: _market(
        churn=ChurnConfig(arrival_rate=1.0, mean_lifespan=250.0),
        pricing=_flat_prices(101),
    ),
    "market-taxed": lambda: _market(
        utilization=UtilizationMode.SYMMETRIC,
        spending_rate_noise=0.05,
        tax_policy=ThresholdIncomeTax(rate=0.2, threshold=15.0),
    ),
}

STREAMING_CASES: Dict[str, Callable[[], StreamingSimConfig]] = {
    "stream-static": lambda: _streaming(),
    "stream-churn": lambda: _streaming(
        churn=ChurnConfig(arrival_rate=1.0, mean_lifespan=150.0)
    ),
    # See ``market-churn-flat``.
    "stream-churn-flat": lambda: _streaming(
        churn=ChurnConfig(arrival_rate=1.0, mean_lifespan=150.0),
        pricing=_flat_prices(202),
    ),
}

#: CLI cases: name -> argv of ``repro``.
CLI_CASES: Dict[str, List[str]] = {
    f"cli-{fig}": ["run", fig, "--scale", "smoke"]
    for fig in (
        "fig1", "fig2", "fig3", "fig4", "fig5_6", "fig7", "fig8", "fig9", "fig10", "fig11",
    )
}

#: Sweep cases: name -> (target, ``--param`` axes, replications), each run
#: at smoke scale like ``repro sweep fig7 --param average_wealth=10,30
#: --reps 2 --scale smoke``.  Only the aggregate table is hashed; the
#: progress and wall-time lines vary from run to run.
SWEEP_CASES: Dict[str, Tuple[str, List[str], int]] = {
    "sweep-fig7": ("fig7", ["average_wealth=10,30"], 2),
}


def _hash(parts: Dict[str, object]) -> str:
    """SHA-256 over named parts: arrays by dtype and bytes, scalars by repr."""
    digest = hashlib.sha256()
    for name, value in parts.items():
        digest.update(name.encode() + b"\0")
        if isinstance(value, np.ndarray):
            array = np.ascontiguousarray(value)
            digest.update(array.dtype.str.encode() + b"\0" + array.tobytes())
        else:
            digest.update(repr(value).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def market_digest(name: str, kernel: str) -> str:
    result = MARKET_KERNELS[kernel].run_config(MARKET_CASES[name]())
    return _hash(
        {
            "final_wealths": result.final_wealths,
            "spending_rates": result.spending_rates,
            "earning_rates": result.earning_rates,
            "tax_pool": float(result.extras["tax_pool"]),
            "total_transfers": int(result.total_transfers),
            "joins": int(result.joins),
            "leaves": int(result.leaves),
        }
    )


def streaming_digest(name: str, kernel: str) -> str:
    result = STREAMING_KERNELS[kernel].run_config(STREAMING_CASES[name]())
    return _hash(
        {
            "final_wealths": result.final_wealths,
            "spending_rates": result.spending_rates,
            "earning_rates": result.earning_rates,
            "continuity": result.continuity,
            "tax_pool": float(result.extras["tax_pool"]),
            "chunks_delivered": int(result.chunks_delivered),
            "source_chunks": int(result.extras["source_chunks"]),
            "joins": int(result.joins),
            "leaves": int(result.leaves),
        }
    )


def cli_digest(name: str) -> str:
    from repro.cli import main

    argv = CLI_CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"repro {' '.join(argv)} exited {code}"
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def sweep_digest(name: str) -> str:
    from repro.runner import ParamGrid, aggregate_sweep, build_spec, run_sweep

    target, params, reps = SWEEP_CASES[name]
    spec = build_spec(
        target, grid=ParamGrid.parse(params), replications=reps, scale="smoke"
    )
    table = aggregate_sweep(run_sweep(spec)).to_csv()
    return hashlib.sha256(table.encode()).hexdigest()


def current_digests() -> Dict[str, str]:
    """Every digest at this revision (computed with the vectorized kernel)."""
    digests = {name: market_digest(name, "vectorized") for name in MARKET_CASES}
    digests.update(
        {name: streaming_digest(name, "vectorized") for name in STREAMING_CASES}
    )
    digests.update({name: cli_digest(name) for name in CLI_CASES})
    digests.update({name: sweep_digest(name) for name in SWEEP_CASES})
    return digests


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def _check(golden: Dict[str, str], name: str, kernel: "str | None", actual: str) -> None:
    expected = golden.get(name)
    assert expected is not None, f"no golden digest named {name!r} in {GOLDEN_PATH.name}"
    where = f" (kernel={kernel})" if kernel is not None else ""
    assert actual == expected, (
        f"golden digest {name!r} moved{where}: expected {expected}, got {actual}"
    )


def test_golden_file_names_exactly_the_cases(golden):
    assert set(golden) == (
        set(MARKET_CASES) | set(STREAMING_CASES) | set(CLI_CASES) | set(SWEEP_CASES)
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", sorted(MARKET_CASES))
def test_market_end_state(golden, name, kernel):
    _check(golden, name, kernel, market_digest(name, kernel))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", sorted(STREAMING_CASES))
def test_streaming_end_state(golden, name, kernel):
    _check(golden, name, kernel, streaming_digest(name, kernel))


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout(golden, name):
    _check(golden, name, None, cli_digest(name))


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_aggregate(golden, name):
    _check(golden, name, None, sweep_digest(name))


if __name__ == "__main__":
    committed = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
    digests = current_digests()
    moved = sorted(
        name for name in digests if committed.get(name, digests[name]) != digests[name]
    )
    for name in moved:
        print(f"moved: {name} {committed[name]} -> {digests[name]}")
    for name in sorted(set(digests) - set(committed)):
        print(f"new: {name} {digests[name]}")
    for name in sorted(set(committed) - set(digests)):
        print(f"dropped: {name} (no longer a case)")
    print(f"{len(moved)} moved of {len(digests)} digests checked")
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
