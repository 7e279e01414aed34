"""Tests for the shared :class:`KernelOptions` bundle and the narrow-dtype path.

Covers the options object itself (validation, ``resolve``, immutability),
the capacity/precision guards that fire for narrow-dtype configurations,
and the contractual properties of the float32 representation:
cross-kernel bit-identity at either dtype,
statistical (not bitwise) equivalence against the default float64 state,
and picklable mid-run state in both layouts.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.p2psim import (
    CreditMarketSimulator,
    KernelOptions,
    MarketSimConfig,
    Simulator,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)
from repro.p2psim.options import DTYPES, KERNELS
from repro.runner import execute


def market_config(**overrides):
    defaults = dict(
        num_peers=60,
        initial_credits=25.0,
        horizon=400.0,
        step=2.0,
        utilization=UtilizationMode.SYMMETRIC,
        topology_mean_degree=8.0,
        sample_interval=50.0,
        seed=13,
    )
    defaults.update(overrides)
    return MarketSimConfig(**defaults)


def streaming_config(**overrides):
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


class TestKernelOptions:
    def test_defaults(self):
        options = KernelOptions()
        assert options.kernel == "vectorized"
        assert options.dtype == "float64"
        assert options.telemetry is True
        assert options.float_dtype == np.float64
        assert options.index_dtype == np.int64
        assert not options.is_narrow

    def test_narrow_dtypes(self):
        options = KernelOptions(dtype="float32")
        assert options.float_dtype == np.float32
        assert options.index_dtype == np.int32
        assert options.is_narrow

    def test_rejects_unknown_values(self):
        with pytest.raises(ValueError, match="kernel"):
            KernelOptions(kernel="bogus")
        with pytest.raises(ValueError, match="dtype"):
            KernelOptions(dtype="float16")

    def test_resolve_maps_none_to_defaults(self):
        assert KernelOptions.resolve() == KernelOptions()
        assert KernelOptions.resolve(dtype=None) == KernelOptions()
        assert KernelOptions.resolve(dtype="float32") == KernelOptions(dtype="float32")

    def test_frozen_and_hashable(self):
        options = KernelOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.kernel = "loop"
        assert len({KernelOptions(), KernelOptions(kernel="loop")}) == 2

    def test_fields_are_kernel_dtype_telemetry(self):
        assert [field.name for field in dataclasses.fields(KernelOptions)] == [
            "kernel",
            "dtype",
            "telemetry",
        ]

    @pytest.mark.parametrize("name", ["shards", "partitioner", "shard_backend"])
    def test_execution_knobs_are_not_options(self, name):
        with pytest.raises(TypeError, match=name):
            KernelOptions(**{name: 2})
        with pytest.raises(TypeError, match=name):
            KernelOptions.resolve(**{name: 2})

    # Validation is exact: no case folding, aliases or whitespace trimming.
    @pytest.mark.parametrize("kernel", ["", "Loop", "VECTORIZED", " loop", "numba", "sharded"])
    def test_rejects_near_miss_kernels(self, kernel):
        with pytest.raises(ValueError, match="kernel must be one of"):
            KernelOptions(kernel=kernel)

    @pytest.mark.parametrize("dtype", ["", "float", "f4", "Float32", "int32", "float64 "])
    def test_rejects_near_miss_dtypes(self, dtype):
        with pytest.raises(ValueError, match="dtype must be one of"):
            KernelOptions(dtype=dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_builds_every_combination(self, kernel, dtype):
        options = KernelOptions(kernel=kernel, dtype=dtype, telemetry=False)
        assert (options.kernel, options.dtype) == (kernel, dtype)
        assert options.telemetry is False
        narrow = dtype == "float32"
        assert options.is_narrow is narrow
        assert options.float_dtype == np.dtype(np.float32 if narrow else np.float64)
        assert options.index_dtype == np.dtype(np.int32 if narrow else np.int64)

    def test_resolve_rejects_invalid_values(self):
        with pytest.raises(ValueError, match="dtype"):
            KernelOptions.resolve(dtype="float16")

    # The point runners build their options through ``resolve``, which
    # takes only the dtype: they always run the default kernel.
    @pytest.mark.parametrize("name", ["kernel", "telemetry"])
    def test_resolve_takes_only_dtype(self, name):
        with pytest.raises(TypeError, match=name):
            KernelOptions.resolve(**{name: None})
        assert KernelOptions.resolve(dtype="float32").kernel == "vectorized"


CONFIG_CLASSES = {"market": MarketSimConfig, "streaming": StreamingSimConfig}


class TestConfigOptions:
    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_rejects_non_options_object(self, name):
        with pytest.raises(TypeError, match="KernelOptions"):
            CONFIG_CLASSES[name](options="vectorized")

    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_kernel_is_not_a_config_field(self, name):
        # Kernel selection lives only on ``options``.
        config_cls = CONFIG_CLASSES[name]
        assert "kernel" not in {field.name for field in dataclasses.fields(config_cls)}
        with pytest.raises(TypeError, match="kernel"):
            config_cls(kernel="loop")

    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_default_options_per_config(self, name):
        first, second = CONFIG_CLASSES[name](), CONFIG_CLASSES[name]()
        assert first.options == KernelOptions()
        assert first.options == second.options

    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_replace_swaps_options(self, name):
        config = CONFIG_CLASSES[name](num_peers=40)
        narrow = dataclasses.replace(config, options=KernelOptions(kernel="loop", dtype="float32"))
        assert narrow.options.kernel == "loop" and narrow.options.is_narrow
        assert narrow.num_peers == config.num_peers
        assert config.options == KernelOptions()


class TestNarrowDtypeGuards:
    def test_int32_capacity_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="int32"):
            MarketSimConfig(num_peers=2**31, options=KernelOptions(dtype="float32"))

    def test_float32_precision_warning_at_config_time(self):
        with pytest.warns(UserWarning, match="float32"):
            MarketSimConfig(
                num_peers=200,
                initial_credits=100000.0,
                options=KernelOptions(dtype="float32"),
            )

    def test_default_dtype_is_unguarded(self, recwarn):
        MarketSimConfig(num_peers=200, initial_credits=100000.0)
        assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]


class TestSimulatorProtocol:
    def test_simulators_satisfy_protocol(self):
        assert isinstance(CreditMarketSimulator(market_config()), Simulator)
        assert isinstance(StreamingMarketSimulator(streaming_config()), Simulator)


class TestFloat32Path:
    def test_market_kernels_byte_identical_at_float32(self):
        vectorized = CreditMarketSimulator.run_config(
            market_config(options=KernelOptions(kernel="vectorized", dtype="float32"))
        )
        loop = CreditMarketSimulator.run_config(
            market_config(options=KernelOptions(kernel="loop", dtype="float32"))
        )
        assert vectorized.final_wealths.tobytes() == loop.final_wealths.tobytes()
        assert tuple(vectorized.recorder.gini_series.y) == tuple(loop.recorder.gini_series.y)

    def test_streaming_kernels_byte_identical_at_float32(self):
        vectorized = StreamingMarketSimulator.run_config(
            streaming_config(options=KernelOptions(kernel="vectorized", dtype="float32"))
        )
        loop = StreamingMarketSimulator.run_config(
            streaming_config(options=KernelOptions(kernel="loop", dtype="float32"))
        )
        assert vectorized.final_wealths.tobytes() == loop.final_wealths.tobytes()
        assert vectorized.chunks_delivered == loop.chunks_delivered

    def test_market_float32_statistically_equivalent(self):
        wide = CreditMarketSimulator.run_config(market_config())
        narrow = CreditMarketSimulator.run_config(
            market_config(options=KernelOptions(dtype="float32"))
        )
        assert narrow.final_wealths.dtype == np.float32
        # Credit conservation is exact in both representations (integer
        # totals well inside float32's exact range) ...
        assert float(narrow.final_wealths.sum()) == pytest.approx(
            float(wide.final_wealths.sum()), rel=1e-6
        )
        # ... and the distributional outcome matches statistically, not
        # bitwise: same seed, same draws, occasional boundary routing flips.
        assert narrow.final_gini == pytest.approx(wide.final_gini, abs=0.05)
        assert float(np.mean(narrow.final_wealths)) == pytest.approx(
            float(np.mean(wide.final_wealths)), rel=1e-5
        )

    def test_streaming_float32_statistically_equivalent(self):
        wide = StreamingMarketSimulator.run_config(streaming_config())
        narrow = StreamingMarketSimulator.run_config(
            streaming_config(options=KernelOptions(dtype="float32"))
        )
        assert narrow.final_wealths.dtype == np.float32
        assert float(narrow.final_wealths.sum()) == pytest.approx(
            float(wide.final_wealths.sum()), rel=1e-6
        )
        assert narrow.final_gini == pytest.approx(wide.final_gini, abs=0.08)
        assert narrow.chunks_delivered == pytest.approx(wide.chunks_delivered, rel=0.1)


class TestPicklableStateBothLayouts:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_market_pickle_roundtrip_mid_run(self, dtype):
        config = market_config(options=KernelOptions(dtype=dtype))
        simulator = CreditMarketSimulator(config)
        half = simulator.total_rounds() // 2
        simulator.advance_rounds(half)
        clone = pickle.loads(pickle.dumps(simulator))
        rest = simulator.total_rounds() - half
        simulator.advance_rounds(rest)
        clone.advance_rounds(rest)
        original = simulator.finalize()
        resumed = clone.finalize()
        assert original.final_wealths.tobytes() == resumed.final_wealths.tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_market_partitioned_matches_monolithic(self, dtype):
        config = market_config(options=KernelOptions(dtype=dtype))
        monolithic = CreditMarketSimulator.run_config(config)
        partitioned = execute(config, blocks=3)
        np.testing.assert_array_equal(monolithic.final_wealths, partitioned.final_wealths)
        assert partitioned.final_wealths.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_streaming_partitioned_matches_monolithic(self, dtype):
        config = streaming_config(options=KernelOptions(dtype=dtype))
        monolithic = StreamingMarketSimulator.run_config(config)
        partitioned = execute(config, blocks=3)
        np.testing.assert_array_equal(monolithic.final_wealths, partitioned.final_wealths)
        assert partitioned.final_wealths.dtype == np.dtype(dtype)
