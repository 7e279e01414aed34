"""Tests for ParamGrid / SweepSpec expansion and the seed-derivation contract."""

import pytest

from repro.runner import SCENARIOS, ParamGrid, SweepSpec, canonical_config, scenario
from repro.utils.rng import derive_seed


class TestParamGrid:
    def test_add_axis_appends_or_replaces_an_axis(self):
        grid = ParamGrid({"a": [1, 2]}).add_axis("b", ("x",)).add_axis("a", [3])
        assert grid.axes == {"a": [3], "b": ["x"]}
        assert grid.points() == [{"a": 3, "b": "x"}]

    def test_add_axis_rejects_an_empty_axis(self):
        grid = ParamGrid({"a": [1]})
        with pytest.raises(ValueError, match="at least one value"):
            grid.add_axis("b", [])
        assert grid.axes == {"a": [1]}

    def test_cartesian_expansion_order(self):
        grid = ParamGrid({"a": [1, 2], "b": ["x", "y"]})
        assert grid.points() == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]
        assert len(grid) == 4

    def test_empty_grid_yields_single_empty_config(self):
        assert ParamGrid().points() == [{}]
        assert len(ParamGrid()) == 1

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            ParamGrid({"a": []})

    def test_parse_coerces_types(self):
        grid = ParamGrid.parse(["rate=0.1,0.2", "count=5", "mode=fast"])
        points = grid.points()
        assert points[0] == {"rate": 0.1, "count": 5, "mode": "fast"}
        assert isinstance(points[0]["rate"], float)
        assert isinstance(points[0]["count"], int)

    def test_parse_rejects_malformed_spec(self):
        with pytest.raises(ValueError, match="name=v1,v2"):
            ParamGrid.parse(["no-equals-sign"])
        with pytest.raises(ValueError, match="name=v1,v2"):
            ParamGrid.parse(["name="])


class TestCanonicalConfig:
    def test_key_order_does_not_matter(self):
        assert canonical_config({"a": 1, "b": 2}) == canonical_config({"b": 2, "a": 1})

    def test_tuples_and_lists_coincide(self):
        assert canonical_config({"a": (1, 2)}) == canonical_config({"a": [1, 2]})

    def test_int_and_float_coincide(self):
        # A CLI-parsed `threshold=50` (int) and a scenario's 50.0 must be the
        # same configuration: identical seeds, identical cache artifacts.
        assert canonical_config({"threshold": 50}) == canonical_config({"threshold": 50.0})
        assert canonical_config({"a": [1, 2]}) == canonical_config({"a": [1.0, 2.0]})
        assert canonical_config({"flag": True}) != canonical_config({"flag": 1})

    def test_int_and_float_grids_share_seeds(self):
        int_spec = SweepSpec("fig9", grid=[{"tax_threshold": 50}], replications=1, base_seed=4)
        float_spec = SweepSpec(
            "fig9", grid=[{"tax_threshold": 50.0}], replications=1, base_seed=4
        )
        assert int_spec.tasks()[0].seed == float_spec.tasks()[0].seed


class TestSweepSpec:
    def test_tasks_ordered_by_config_then_replication(self):
        spec = SweepSpec("fig3", grid=ParamGrid({"num_peers": [30, 50]}), replications=2)
        tasks = spec.tasks()
        assert [(t.config_index, t.replication) for t in tasks] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_seed_follows_derivation_contract(self):
        spec = SweepSpec(
            "fig3", grid=ParamGrid({"num_peers": [30]}), replications=2, base_seed=9
        )
        task = spec.tasks()[1]
        expected = derive_seed(9, "sweep", "fig3", canonical_config({"num_peers": 30}), 1)
        assert task.seed == expected

    def test_seed_independent_of_grid_position(self):
        # The same config must receive the same seeds no matter where it
        # sits in the grid — appending configs never perturbs existing ones.
        small = SweepSpec("fig3", grid=[{"num_peers": 30}], replications=2, base_seed=3)
        large = SweepSpec(
            "fig3",
            grid=[{"num_peers": 99}, {"num_peers": 30}],
            replications=2,
            base_seed=3,
        )
        small_seeds = [t.seed for t in small.tasks()]
        large_seeds = [t.seed for t in large.tasks() if t.config == {"num_peers": 30}]
        assert small_seeds == large_seeds

    def test_replication_seeds_distinct(self):
        spec = SweepSpec("fig3", grid=[{"num_peers": 30}], replications=5)
        seeds = [t.seed for t in spec.tasks()]
        assert len(set(seeds)) == len(seeds)

    def test_task_payload_round_trip(self):
        from repro.runner import SweepTask

        task = SweepSpec("fig9", grid=[{"tax_rate": 0.1}], replications=1).tasks()[0]
        assert SweepTask.from_payload(task.to_payload()) == task

    def test_task_config_key_ignores_axis_order(self):
        forward, backward = (
            SweepSpec("fig9", grid=[config], replications=1).tasks()[0]
            for config in ({"tax_rate": 0.1, "tax_threshold": 50.0},
                           {"tax_threshold": 50.0, "tax_rate": 0.1})
        )
        assert forward.config_key() == backward.config_key()
        assert forward.config_key() == canonical_config(forward.config)
        assert forward.seed == backward.seed

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError, match="replications"):
            SweepSpec("fig3", replications=0)

    def test_describe_mentions_shape(self):
        spec = SweepSpec(
            "fig11",
            grid=[{"mean_lifespan": 250.0}, {"mean_lifespan": 500.0}],
            replications=3,
            scale="smoke",
        )
        assert "2 configs x 3 reps = 6 shards" in spec.describe()

    def test_duplicate_configs_deduplicated(self):
        # Two grid points with identical canonical content (50 vs 50.0) are
        # one configuration: one seed chain, one cache artifact, one row.
        spec = SweepSpec(
            "fig3",
            grid=[{"num_peers": 50}, {"num_peers": 50.0}],
            replications=2,
            scale="smoke",
        )
        assert len(spec.configs()) == 1
        assert len(spec.tasks()) == 2

    def test_ignored_knobs_normalized_out_of_config_identity(self):
        # fig10's wealth_threshold is meaningless under the fixed policy and
        # fig9's tax_threshold under tax_rate=0: crossing them must not mint
        # distinct configurations that simulate identically.
        spec = SweepSpec(
            "fig10",
            grid=ParamGrid(
                {"spending_policy": ["fixed", "dynamic"], "wealth_threshold": [10.0, 20.0]}
            ),
            scale="smoke",
        )
        configs = spec.configs()
        assert {"spending_policy": "fixed"} in configs
        assert len(configs) == 3  # fixed once + dynamic at each threshold
        spec9 = SweepSpec(
            "fig9",
            grid=ParamGrid({"tax_rate": [0.0, 0.1], "tax_threshold": [50.0, 80.0]}),
            scale="smoke",
        )
        configs9 = spec9.configs()
        assert {"tax_rate": 0.0} in configs9
        assert len(configs9) == 3  # no-tax once + taxed at each threshold

    def test_threshold_only_fig9_sweep_is_one_no_tax_config(self):
        # Without a tax_rate axis the point runner's default (0.0) applies:
        # the thresholds are all ignored, so the sweep is one explicit
        # no-tax configuration (not the empty config, which would replicate
        # the whole figure).
        spec = SweepSpec(
            "fig9", grid=ParamGrid({"tax_threshold": [50.0, 80.0]}), scale="smoke"
        )
        assert spec.configs() == [{"tax_rate": 0.0}]


class TestScenarios:
    def test_every_scenario_builds(self):
        for name in SCENARIOS:
            spec = scenario(name, replications=2, base_seed=5, scale="smoke")
            assert spec.replications == 2
            assert spec.base_seed == 5
            assert spec.scale == "smoke"
            assert len(spec.configs()) >= 2

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario("not-a-scenario")

    def test_every_scenario_uses_declared_sweep_axes(self):
        # A bundle whose configs name an axis the point runner does not
        # accept would only fail at shard-execution time; pin it here.
        from repro.experiments import validate_sweep_config

        for name in SCENARIOS:
            spec = SCENARIOS[name]()
            axis_names = {key for config in spec.configs() for key in config}
            validate_sweep_config(spec.experiment_id, axis_names)

    def test_every_figure_has_a_paper_scale_bundle(self):
        from repro.experiments import EXPERIMENTS

        for experiment_id in EXPERIMENTS:
            name = f"{experiment_id}-paper"
            assert name in SCENARIOS, name
            spec = SCENARIOS[name]()
            assert spec.experiment_id == experiment_id
            assert spec.scale == "paper"
            assert len(spec.configs()) >= 1
            assert all(config for config in spec.configs()), (
                f"{name}: empty config would replicate the whole experiment "
                "instead of running a grid point"
            )
