"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig4"])
        assert args.experiment == "fig4"
        assert args.scale == "default"
        assert args.seed == 0
        assert args.csv is None

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig4", "--scale", "huge"])

    def test_run_accepts_reps_and_jobs(self):
        args = build_parser().parse_args(["run", "fig4", "--reps", "3", "--jobs", "2"])
        assert args.reps == 3
        assert args.jobs == 2
        assert args.cache_dir is None

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "fig11"])
        assert args.target == "fig11"
        assert args.param == []
        assert args.reps == 1
        assert args.jobs == 1

    def test_sweep_collects_repeated_params(self):
        args = build_parser().parse_args(
            ["sweep", "fig9", "--param", "tax_rate=0.1,0.2", "--param", "tax_threshold=50"]
        )
        assert args.param == ["tax_rate=0.1,0.2", "tax_threshold=50"]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port, args.jobs) == ("127.0.0.1", 8765, 1)
        assert args.cache_dir is None and args.bench_root is None

    # Each simulator has one execution path; the spatial-sharding flags,
    # the round-block flag, the kernel switch and the state-dtype switch
    # are gone from every subcommand rather than accepted and ignored (the
    # loop kernels are test oracles in tests/kernel_oracles.py; float64
    # state is the only representation; a shard runs its simulations
    # whole).  `analyze` keeps no state between runs: its cache,
    # --changed and baseline flags are gone.
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig7", "--kernel", "loop"],
            ["sweep", "fig7", "--kernel", "loop"],
            ["run", "fig7", "--dtype", "float32"],
            ["sweep", "fig7", "--dtype", "float32"],
            ["run", "fig7", "--shards", "2"],
            ["run", "fig7", "--partitioner", "hash"],
            ["run", "fig7", "--shard-backend", "thread"],
            ["sweep", "fig7", "--shards", "2"],
            ["sweep", "fig7", "--partitioner", "overlay"],
            ["sweep", "fig7", "--shard-backend", "process"],
            ["serve", "--shards", "2"],
            ["serve", "--partitioner", "hash"],
            ["run", "fig7", "--intra-jobs", "2"],
            ["sweep", "fig7", "--intra-jobs", "2"],
            ["serve", "--intra-jobs", "2"],
            ["analyze", "--changed", "src"],
            ["analyze", "--cache-dir", "cache"],
            ["analyze", "--no-cache", "src"],
            ["analyze", "--baseline", "base.json"],
            ["analyze", "--no-baseline", "src"],
            ["analyze", "--write-baseline", "src"],
            ["analyze", "--verbose", "src"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_sharding_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    # `run` rejects a non-positive replication count like `sweep` does,
    # instead of silently running once at the default --jobs 1.
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_reps_exit_2(self, command, value, capsys):
        argv = [command, "fig7", "--scale", "smoke", "--reps", value]
        if command == "sweep":
            argv += ["--param", "average_wealth=8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "replications must be at least 1" in captured.err
        assert "stabilized_gini" not in captured.out


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("fig1", "fig4", "fig11"):
            assert experiment_id in output

    def test_run_analytic_experiment(self, capsys):
        assert main(["run", "fig4", "--scale", "smoke", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 4" in output
        assert "efficiency_eq9" in output

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99", "--scale", "smoke"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "fig4.csv"
        assert main(["run", "fig4", "--scale", "smoke", "--csv", str(target)]) == 0
        content = target.read_text()
        assert "average_wealth_c" in content.splitlines()[0]
        assert len(content.splitlines()) > 2

    def test_list_mentions_sweep_scenarios(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig9-taxation-grid" in output

    def test_run_with_reps_prints_aggregate(self, capsys):
        assert main(["run", "fig4", "--scale", "smoke", "--reps", "2"]) == 0
        output = capsys.readouterr().out
        assert "Sweep aggregate" in output
        assert "2 reps" in output

    def test_run_with_cache_dir_caches_a_single_run(self, tmp_path, capsys):
        # --cache-dir routes a plain run through the orchestrator: same
        # figure output, but the second invocation reuses the artifact.
        argv = ["run", "fig4", "--scale", "smoke", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Fig. 4" in first
        assert "1 executed" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "Fig. 4" in second
        assert "0 executed, 1 from cache" in second

    def test_sweep_command_with_cache_and_csv(self, tmp_path, capsys):
        target = tmp_path / "agg.csv"
        argv = [
            "sweep", "fig3",
            "--param", "num_peers=30,40", "--param", "num_samples=2",
            "--scale", "smoke", "--reps", "2", "--seed", "5",
            "--cache-dir", str(tmp_path / "cache"), "--csv", str(target),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "4 shards" in first
        assert "4 executed, 0 from cache" in first
        assert "summary: 2 configs | 0 cache hits | 4 shards executed |" in first
        content = target.read_text()
        assert "metric" in content.splitlines()[0]

        # A warm re-run reuses every shard and reproduces the bytes exactly.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 4 from cache" in second
        assert "summary: 2 configs | 4 cache hits | 0 shards executed |" in second
        assert target.read_text() == content

    def test_sweep_named_scenario_runs(self, capsys):
        assert main(["sweep", "fig9-taxation-grid", "--scale", "smoke", "--jobs", "2"]) == 0
        output = capsys.readouterr().out
        assert "Sweep aggregate" in output
        assert "stabilized_gini" in output

    def test_sweep_unknown_experiment_fails(self, capsys):
        assert main(["sweep", "fig99", "--param", "a=1", "--scale", "smoke"]) == 2
        assert "not sweepable" in capsys.readouterr().err

    def test_sweep_malformed_param_fails(self, capsys):
        assert main(["sweep", "fig3", "--param", "oops"]) == 2
        assert "name=v1,v2" in capsys.readouterr().err

    def test_sweep_scenario_keeps_pinned_scale(self):
        from repro.cli import _build_sweep_spec

        # A paper bundle keeps its pinned paper scale when --scale is absent...
        args = build_parser().parse_args(["sweep", "fig7-paper"])
        assert _build_sweep_spec(args).scale == "paper"
        # ... an explicit --scale still overrides it...
        args = build_parser().parse_args(["sweep", "fig7-paper", "--scale", "smoke"])
        assert _build_sweep_spec(args).scale == "smoke"
        # ... and ad-hoc experiment-id sweeps default to the default scale.
        args = build_parser().parse_args(["sweep", "fig7", "--param", "average_wealth=10"])
        assert _build_sweep_spec(args).scale == "default"

    def test_list_prints_sweep_axes_for_every_experiment(self, capsys):
        from repro.experiments import EXPERIMENTS, sweep_params

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "sweep axes" in output
        for experiment_id in EXPERIMENTS:
            for axis in sweep_params(experiment_id):
                assert axis in output

    def test_list_mentions_paper_scale_bundles(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("fig1-paper", "fig5_6-paper", "fig10-paper"):
            assert name in output

    def test_sweep_unknown_axis_fails_before_running(self, capsys):
        # Axis validation happens at spec-build time, not inside a worker.
        assert main(["sweep", "fig1", "--param", "bogus=1", "--scale", "smoke"]) == 2
        err = capsys.readouterr().err
        assert "unknown sweep parameter" in err
        assert "initial_credits" in err

    def test_sweep_newly_ported_experiment_runs(self, capsys):
        argv = [
            "sweep", "fig1",
            "--param", "initial_credits=5,8",
            "--param", "num_peers=24", "--param", "horizon=60",
            "--scale", "smoke", "--reps", "2", "--jobs", "2",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "4 shards" in output
        assert "wealth_gini" in output

    # float64 state is the only representation: no simulator-backed
    # experiment accepts a dtype axis, so it never feeds derived seeds or
    # cache keys.
    @pytest.mark.parametrize(
        "experiment", ["fig1", "fig5_6", "fig7", "fig8", "fig9", "fig10", "fig11"]
    )
    def test_sweep_dtype_axis_rejected(self, experiment, capsys):
        argv = ["sweep", experiment, "--param", "dtype=float32", "--scale", "smoke"]
        assert main(argv) == 2
        assert "unknown sweep parameter" in capsys.readouterr().err

    def test_sweep_kernel_axis_rejected(self, capsys):
        # The kernel is not a sweep axis: every sweep runs the vectorized
        # kernel, so it never feeds derived seeds or cache keys.
        argv = ["sweep", "fig7", "--param", "kernel=loop", "--scale", "smoke"]
        assert main(argv) == 2
        assert "unknown sweep parameter" in capsys.readouterr().err
