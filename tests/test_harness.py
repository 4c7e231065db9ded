import dataclasses
import json
import math
import shlex
import threading
from pathlib import Path

import numpy as np
import pytest

from bctsim import analysis as an
from bctsim import cli
from bctsim import harness as hn
from bctsim import protocol as pr
from bctsim.geometry import THETA_SPAN
from quad_oracle import pair_equal_reference
from table_oracle import outputs_near, theta_of

PI = math.pi


def make_config(**kw):
    base = dict(experiment="opposite-axes", trials=20_000, seed=7, nu_grid=(PI / 10,))
    base.update(kw)
    return hn.ExperimentConfig(**base)


class TestConfigValidation:
    def test_valid_config_passes(self):
        make_config().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(experiment="nonsense"),
            dict(trials=0),
            dict(seed=-1),
            dict(seed=2**64),
            dict(nu_grid=()),
            dict(nu_grid=(PI,)),  # outside [0, pi/5]
            dict(coin_mode="bogus"),
            dict(strategy="cyclic-flip"),
            dict(strategy=None),
            # an option the experiment never reads: a coin mode off independent, a reflection reading on calibrate
            dict(experiment="correlation", nu_grid=(), angle_grid=(0.1,), coin_mode="shared"),
            dict(experiment="audit", theta_grid=(1.0,), coin_mode=pr.CoinMode.SHARED),
            dict(experiment="remedy", coin_mode="shared"),
            dict(experiment="calibrate", nu_grid=(), angle_grid=(0.1,), coin_mode="shared"),
            dict(experiment="calibrate", nu_grid=(), angle_grid=(0.1,), strategy=pr.ABS_FLIP),
            dict(experiment="calibrate", nu_grid=(), angle_grid=(0.1,),
                 strategy=pr.Strategy(flip_semantics=pr.FlipSemantics.TERMINATE)),
            # run sizes that are not integers: a bool, a float, a string
            dict(trials=True),
            dict(trials=1000.0),
            dict(trials="1000"),
            dict(seed=1.5),
            dict(seed=np.float64(3.0)),
            dict(seed=False),
            dict(seed=np.True_),
            dict(seed="3"),
            # negative sizes, not only zero
            dict(trials=-1),
            # remedy sweeps the reflection rules itself, so it reads no rule off the default
            dict(experiment="remedy", strategy=pr.CYCLIC_FLIP),
            dict(experiment="remedy", strategy=pr.ABS_FLIP),
        ],
    )
    def test_bad_configs_rejected(self, kw):
        with pytest.raises(hn.ConfigError):
            make_config(**kw).validate()

    def test_remedy_reads_the_flip_semantics(self):
        """Remedy plays every reflection rule under the config's semantics, so a terminating reading validates."""
        terminate = pr.Strategy(pr.FlipRule.DISABLED, pr.FlipSemantics.TERMINATE)
        make_config(experiment="remedy", strategy=terminate).validate()

    def test_run_sizes_are_stored_as_python_ints(self):
        """NumPy integers run and emit as the Python ints they equal."""
        sizes = dict(trials=np.int64(2000), seed=np.uint64(3))
        config = make_config(**sizes).validate()
        assert [(type(getattr(config, k)), getattr(config, k)) for k in sizes] == [(int, int(v)) for v in sizes.values()]
        got = hn.run_experiment(make_config(**sizes))
        want = hn.run_experiment(make_config(trials=2000, seed=3))
        for fmt in ("csv", "json"):
            assert hn.render_text(got, fmt) == hn.render_text(want, fmt)

    def test_theta_and_visibility_domains(self):
        with pytest.raises(hn.ConfigError):
            make_config(experiment="audit", theta_grid=(3 * PI / 5,)).validate()
        with pytest.raises(hn.ConfigError):
            make_config(experiment="visibility", visibility_grid=(1.2,), nu_grid=(PI / 10,)).validate()

    @pytest.mark.parametrize("name", list(hn.EXPERIMENTS))
    def test_grids_outside_the_experiment_rejected(self, name):
        spec = hn.EXPERIMENTS[name]
        required = {grid: cli.parse_grid(default) for grid, default in spec.grids.items()}
        hn.ExperimentConfig(experiment=name, **required).validate()
        for grid in hn.GRIDS:
            config = hn.ExperimentConfig(experiment=name, **{**required, grid: (0.1,)})  # 0.1 is in every domain
            if grid in spec.grids or grid in spec.optional:
                config.validate()
            else:
                with pytest.raises(hn.ConfigError, match="does not use"):
                    config.validate()

    def test_a_coin_mode_string_runs_as_its_member(self):
        table = hn.run_experiment(make_config(trials=2_000, coin_mode="shared"))
        assert table.manifest["coin_mode"] == "shared"
        assert table.rows == hn.run_experiment(make_config(trials=2_000, coin_mode=pr.CoinMode.SHARED)).rows

    def test_manifest_contents(self):
        m = make_config().manifest()
        assert m["seed"] == 7
        assert m["trials"] == 20_000
        assert m["strategy"] == "disabled"
        assert m["version"] == hn.VERSION

    @pytest.mark.parametrize("name", list(hn.EXPERIMENTS))
    def test_manifest_names_only_the_option_parts_the_experiment_reads(self, name):
        """``strategy``, ``flip_semantics`` and ``coin_mode`` head a table only where ``optional`` names their part."""
        spec = hn.EXPERIMENTS[name]
        config = hn.ExperimentConfig(experiment=name, **{g: cli.parse_grid(d) for g, d in spec.grids.items()})
        parts = {"strategy": "strategy", "flip_semantics": "flip_semantics", "coin": "coin_mode"}
        want = ["experiment", "seed", "trials", *(cell for part, cell in parts.items() if part in spec.optional),
                "version"]
        assert list(config.validate().manifest()) == want
        table = hn.run_experiment(dataclasses.replace(config, trials=10))
        csv_lines = hn.render_text(table, "csv").splitlines()
        assert [line[2:].partition("=")[0] for line in csv_lines if line.startswith("# ")] == want
        assert list(json.loads(hn.render_text(table, "json"))["manifest"]) == want


class TestDeterminism:
    def test_same_seed_same_table(self):
        cfg = make_config()
        t1 = hn.run_experiment(make_config())
        t2 = hn.run_experiment(make_config())
        assert t1.rows == t2.rows
        t3 = hn.run_experiment(make_config(seed=8))
        assert t3.rows != t1.rows

    def test_rows_run_in_turn_on_their_own_keys(self, monkeypatch):
        """Each stream runs all its trials on the run's seed and its key: ``(i,)``, or ``(i, s)`` for the audit's."""
        calls, kernel_of = [], hn._kernel

        def recorded(*args, **kwargs):
            kernel = kernel_of(*args, **kwargs)
            return lambda seed, key, n: calls.append((seed, key, n)) or kernel(seed, key, n)

        monkeypatch.setattr(hn, "_kernel", recorded)
        hn.run_experiment(make_config(trials=3000, seed=11, nu_grid=(0.0, PI / 10, PI / 5)))
        assert calls == [(11, (i,), 3000) for i in range(3)]
        calls.clear()
        hn.run_experiment(make_config(experiment="audit", nu_grid=(), theta_grid=(1.0, 1.2), trials=500, seed=2))
        assert calls == [(2, (i, s), 500) for i in range(2) for s in range(2)]

    def test_a_run_starts_no_thread(self, monkeypatch):
        """Rows run in turn on the calling thread, whatever the experiment."""
        started, start = [], threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        hn.run_experiment(make_config(trials=5000))
        hn.run_experiment(make_config(experiment="audit", nu_grid=(), theta_grid=(0.35 * PI, 0.45 * PI),
                                      trials=2000))
        assert started == []


class TestKernelsAgainstOracles:
    def test_correlation_sweep_matches_reference_law(self):
        cfg = hn.ExperimentConfig(
            experiment="correlation",
            trials=60_000,
            seed=3,
            strategy=pr.CYCLIC_FLIP,
            angle_grid=tuple(np.linspace(0, 2 * PI, 9, endpoint=False)),
        )
        table = hn.run_experiment(cfg)
        for row in table.rows:
            se = max(row["stderr"], 1e-9)
            assert abs(row["estimate"] - row["oracle"]) < 5 * se
        zero_row = table.rows[0]
        assert zero_row["estimate"] == 1.0
        assert zero_row["stderr"] == 0.0
        assert zero_row["deviation"] == 0.0

    def test_opposite_axes_estimate_and_attribution(self):
        cfg = make_config(trials=200_000)
        table = hn.run_experiment(cfg)
        row = table.rows[0]
        closed = an.p_opposite_equal_closed(PI / 10).p_total
        assert row["closed_form"] == pytest.approx(closed, abs=1e-12)
        # the raw rate includes coincidences outside the two windows
        assert row["estimate"] == pytest.approx(an.two_bob_equal_quadrature(PI / 10), abs=0.01)
        assert "exceeds-closed-form-4se" in row["flags"]
        assert "in-windows-estimate=" in row["flags"]
        assert "outside-windows-excess=" in row["flags"]
        in_win = float(row["flags"].split("in-windows-estimate=")[1].split(";")[0])
        assert in_win == pytest.approx(closed, abs=0.01)

    def test_opposite_axes_endpoint_flags(self):
        cfg = make_config(nu_grid=(0.0,), trials=20_000)
        table = hn.run_experiment(cfg)
        assert "endpoint-minimum-reported=0.071" in table.rows[0]["flags"]

    def test_conditioned_two_bob_estimates(self):
        est, se = hn.conditioned_two_bob_estimate(PI / 10, 0.35 * PI, 100_000, 11)
        assert est == pytest.approx(1 - (3 * PI / 10) * math.sin(PI / 20), abs=0.01)
        est0, _ = hn.conditioned_two_bob_estimate(
            PI / 10, 0.35 * PI, 50_000, 12, pr.CYCLIC_FLIP, pr.CoinMode.SHARED
        )
        assert est0 == 0.0

    def test_conditioned_pair_estimate(self):
        p = float(pr.p_equal_given_theta(PI / 2, PI, 0.35 * PI))
        est, se = hn.conditioned_pair_estimate(PI / 2, PI, 0.35 * PI, 100_000, 13)
        assert abs(est - p) < 4 * se

    def test_conditioned_estimates_reject_theta_at_the_end_of_the_range(self):
        with pytest.raises(hn.ConfigError, match="conditioned theta"):
            hn.conditioned_two_bob_estimate(PI / 10, THETA_SPAN, 10, 11)
        with pytest.raises(hn.ConfigError, match="conditioned theta"):
            hn.conditioned_pair_estimate(PI / 2, PI, THETA_SPAN, 10, 13)

    @pytest.mark.parametrize("estimator", ["conditioned_two_bob_estimate", "conditioned_pair_estimate",
                                           "joint_outcome_table"])
    @pytest.mark.parametrize("bad,message", [
        (dict(trials=0), "trials must be positive"),
        (dict(trials=-5), "trials must be positive"),
        (dict(seed=-1), "seed must be a non-negative 64-bit integer"),
        (dict(seed=2**64), "seed must be a non-negative 64-bit integer"),
        (dict(trials=True), "trials must be an integer"),
        (dict(trials=1000.0), "trials must be an integer"),
        (dict(seed=1.5), "seed must be an integer"),
    ])
    def test_estimators_check_their_run_sizes_as_validate_does(self, estimator, bad, message):
        """Each public estimator raises ``validate``'s ``ConfigError`` for a run it cannot draw."""
        args = dict(conditioned_two_bob_estimate=dict(nu=PI / 10, theta=0.35 * PI),
                    conditioned_pair_estimate=dict(a=PI / 2, b=PI, theta=0.35 * PI),
                    joint_outcome_table=dict(a=0.0, b=PI / 2))[estimator]
        with pytest.raises(hn.ConfigError, match=message):
            getattr(hn, estimator)(**args, **{"trials": 1000, "seed": 3, **bad})
        with pytest.raises(hn.ConfigError, match=message):
            make_config(**bad).validate()

    def test_joint_outcome_table_margins(self):
        table = hn.joint_outcome_table(0.0, PI / 2, 100_000, 21)
        assert table.sum() == 100_000
        # both marginals uniform
        assert abs(table[0].sum() / 100_000 - 0.5) < 0.01
        assert abs(table[:, 0].sum() / 100_000 - 0.5) < 0.01

    def test_visibility_scan_rows(self):
        cfg = hn.ExperimentConfig(
            experiment="visibility",
            trials=150_000,
            seed=5,
            visibility_grid=(1.0, 0.99),
            nu_grid=(PI / 10,),
        )
        table = hn.run_experiment(cfg)
        full = table.rows[0]
        assert full["p_effective"] == pytest.approx(an.p_opposite_equal_closed(PI / 10).p_total, abs=1e-12)
        assert abs(full["estimate"] - full["p_effective"]) < 5 * max(full["stderr"], 1e-9)
        degraded = table.rows[1]
        assert degraded["p_effective"] == pytest.approx(0.99**2 * an.p_opposite_equal_closed(PI / 10).p_total, abs=1e-12)
        assert degraded["v_threshold"] == pytest.approx(an.visibility_threshold(PI / 10), abs=1e-12)

    def test_audit_run(self):
        cfg = hn.ExperimentConfig(
            experiment="audit",
            trials=20_000,
            seed=9,
            theta_grid=(0.35 * PI, 0.45 * PI),
        )
        table = hn.run_experiment(cfg)
        assert [r["violation"] for r in table.rows] == ["true", "true"]
        first = table.rows[0]
        assert first["p_same_forward"] == 1.0
        assert first["mc_forward"] == 1.0  # deterministic branch samples exactly
        assert abs(first["mc_anti_reversed"] - first["p_anti_reversed"]) < 4 * max(first["mc_anti_reversed_stderr"], 1e-9)

    def test_remedy_analysis_rows(self):
        cfg = hn.ExperimentConfig(
            experiment="remedy",
            trials=30_000,
            seed=15,
            nu_grid=(PI / 10,),
            theta_grid=(0.45 * PI,),
        )
        table = hn.run_experiment(cfg)
        combos = {(r["flip_rule"], r["coin_mode"], r["theta"]) for r in table.rows}
        assert len(table.rows) == 10  # 5 combos x (sampled + one conditioned theta)
        shared = next(
            r for r in table.rows
            if r["flip_rule"] == "cyclic-distance" and r["coin_mode"] == "shared" and r["theta"] is None
        )
        assert shared["estimate"] == 0.0
        assert "no-equal-outputs" in shared["flags"]
        conditioned = next(
            r for r in table.rows
            if r["flip_rule"] == "cyclic-distance" and r["coin_mode"] == "independent" and r["theta"] is not None
        )
        p = 1 - (3 * PI / 10) * math.sin(PI / 20)
        assert conditioned["estimate"] == pytest.approx(2 * p * (1 - p), abs=0.015)
        # every remedy keeps the second axis's equal-output rate at its exact value, 1/2 under every rule
        a, b2 = an.alice_setting(PI / 10), an.WALKTHROUGH_B1 + PI
        for row in table.rows:
            if row["theta"] is None:
                p = pair_equal_reference(a, b2, pr.Strategy(pr.FlipRule(row["flip_rule"])))
                assert p == pytest.approx(0.5, abs=1e-12)
                assert abs(row["ab2_estimate"] - p) < 4 * math.sqrt(p * (1 - p) / row["trials"])

    def test_remedy_builds_one_table_per_nu_and_flip_rule(self, monkeypatch):
        """A table does not depend on the coin mode: each nu builds one per flip rule, conditioned rows included.

        The remedy's tables are the frame's, which ``analysis`` builds; the harness builds none itself.
        """
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return pr.segment_table(*args, **kwargs)

        monkeypatch.setattr(an, "segment_table", counted)
        monkeypatch.setattr(hn, "segment_table", counted)
        cfg = hn.ExperimentConfig(experiment="remedy", trials=100, seed=3, nu_grid=(0.0, PI / 10),
                                  theta_grid=(0.35 * PI, 0.45 * PI))
        table = hn.run_experiment(cfg)
        assert len(table.rows) == 2 * len(hn.REMEDY_COMBOS) * 3
        assert len(built) == 2 * 3  # per nu: the disabled, cyclic and absolute rules

    def test_remedy_computes_each_conditioned_oracle_once_per_flip_rule_and_theta(self, monkeypatch):
        """The conditioned acceptances do not depend on the coin mode: one nu, two thetas, three rules, one read each.

        The ``ab2_oracle`` is read off the table each row samples, bit for bit
        ``p_equal_given_theta``, and every conditioned kernel of that rule and
        theta takes the same read.
        """
        calls = []
        accept = pr.SegmentTable.accept

        def counted(table, theta):
            calls.append(theta)
            return accept(table, theta)

        monkeypatch.setattr(pr.SegmentTable, "accept", counted)
        cfg = hn.ExperimentConfig(experiment="remedy", trials=100, seed=3, nu_grid=(PI / 10,),
                                  theta_grid=(0.35 * PI, 0.45 * PI))
        table = hn.run_experiment(cfg)
        assert len(table.rows) == len(hn.REMEDY_COMBOS) * 3
        # the disabled, cyclic and absolute rules' acceptances at each theta, which the kernels reuse
        assert len(calls) == 3 * 2
        a, b2 = an.alice_setting(PI / 10), an.WALKTHROUGH_B1 + PI
        for row in table.rows:
            if row["theta"] is not None:
                strategy = pr.Strategy(pr.FlipRule(row["flip_rule"]), cfg.strategy.flip_semantics)
                assert row["ab2_oracle"] == pr.p_equal_given_theta(a, b2, row["theta"], strategy)

    @pytest.mark.parametrize("coin_mode", [pr.CoinMode.INDEPENDENT, pr.CoinMode.SHARED])
    def test_two_bob_sampler_matches_quadrature(self, coin_mode):
        # dual route: the per-theta coupling formulas integrate to what the
        # sampler measures, for both coin modes
        for nu in (0.0, PI / 20, PI / 10):
            expected = an.two_bob_equal_quadrature(nu, pr.NO_FLIP, coin_mode)
            cfg = make_config(trials=400_000, seed=77, coin_mode=coin_mode, nu_grid=(nu,))
            row = hn.run_experiment(cfg).rows[0]
            assert abs(row["estimate"] - expected) < 4 * row["stderr"] + 1e-9

    def test_calibration_ranks_cyclic_continue_first(self):
        cfg = hn.ExperimentConfig(
            experiment="calibrate",
            trials=40_000,
            seed=19,
            angle_grid=tuple(np.linspace(0, 2 * PI, 13, endpoint=False)),
        )
        table = hn.run_experiment(cfg)
        best = min(table.rows, key=lambda r: r["strategy_max_deviation"])
        assert best["strategy"] == "cyclic-flip"
        assert best["flip_semantics"] == "continue-then-negate"
        by_label = {r["strategy"]: r["strategy_max_deviation"] for r in table.rows}
        assert by_label["cyclic-flip"] < 0.02
        assert by_label["paper-iic"] > 0.05
        assert by_label["abs-flip"] > 0.05


class TestEmission:
    def test_csv_round_trip_six_significant_digits(self, tmp_path):
        table = hn.run_experiment(make_config())
        p = tmp_path / "t.csv"
        hn.emit(table, "csv", p)
        manifest, columns, rows = hn.read_csv_table(p)
        assert columns == table.columns
        assert manifest["seed"] == "7"
        assert len(rows) == len(table.rows)
        for parsed, orig in zip(rows, table.rows):
            for col in columns:
                want = hn._render(orig[col])
                assert parsed[col] == want

    def test_json_row_count_matches_grid(self, tmp_path):
        cfg = make_config(nu_grid=tuple(np.linspace(0, an.NU_MAX, 5)), trials=2000)
        table = hn.run_experiment(cfg)
        p = tmp_path / "t.json"
        hn.emit(table, "json", p)
        blob = json.loads(p.read_text())
        assert len(blob["rows"]) == 5
        assert blob["manifest"]["version"] == hn.VERSION

    def test_emit_failure_reports_path(self, tmp_path):
        table = hn.run_experiment(make_config(trials=1000))
        bad = tmp_path / "missing-dir" / "t.csv"
        with pytest.raises(hn.EmitError, match="missing-dir"):
            hn.emit(table, "csv", bad)

    def test_unknown_format_rejected_by_both_output_paths(self, tmp_path):
        table = hn.run_experiment(make_config(trials=1000))
        with pytest.raises(hn.ConfigError, match="csv or json"):
            hn.render_text(table, "xml")
        p = tmp_path / "t.xml"
        with pytest.raises(hn.ConfigError, match="csv or json"):
            hn.emit(table, "xml", p)
        assert not p.exists()

    def test_replay_from_manifest_reproduces_estimates(self, tmp_path):
        table = hn.run_experiment(make_config(trials=5000))
        p = tmp_path / "t.csv"
        hn.emit(table, "csv", p)
        manifest, _, rows = hn.read_csv_table(p)
        replay_cfg = make_config(trials=int(manifest["trials"]), seed=int(manifest["seed"]))
        replay = hn.run_experiment(replay_cfg)
        assert hn._render(replay.rows[0]["estimate"]) == rows[0]["estimate"]


class TestCli:
    def test_grid_parsing(self):
        assert cli.parse_grid("0:1:3") == (0.0, 0.5, 1.0)
        assert cli.parse_grid("2:9:1") == (2.0,)
        with pytest.raises(hn.ConfigError):
            cli.parse_grid("1:2")
        with pytest.raises(hn.ConfigError):
            cli.parse_grid("a:b:c")

    @pytest.mark.parametrize(
        "argv",
        [
            ["correlation", "--trials", "2000", "--angle-grid", "0:3.14:3"],
            ["opposite-axes", "--trials", "2000", "--nu-grid", "0:0.628:3"],
            ["visibility", "--trials", "2000", "--visibility-grid", "0.9:1:2", "--nu-grid", "0.3141:0.3141:1"],
            ["audit", "--trials", "2000", "--theta-grid", "0.95:1.5:3"],
            ["remedy", "--trials", "2000", "--nu-grid", "0.3141:0.3141:1"],
            ["calibrate", "--trials", "2000", "--angle-grid", "0:6.28:4"],
        ],
    )
    def test_subcommands_write_files(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = cli.main(argv + ["--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()
        manifest, columns, rows = hn.read_csv_table(out)
        assert rows
        assert manifest["seed"] == "1"

    def test_stdout_when_no_out_path(self, capsys):
        code = cli.main(["opposite-axes", "--trials", "1000", "--nu-grid", "0.3141:0.3141:1"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# experiment=opposite-axes")

    def test_bad_config_exits_nonzero(self, capsys):
        code = cli.main(["opposite-axes", "--trials", "0", "--nu-grid", "0.1:0.1:1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_workers_token_is_checked_and_ignored(self, capsys):
        """Rows run in turn, so ``--workers 2`` prints the bytes of no flag; ``--workers 0`` is still an error."""
        argv = ["opposite-axes", "--trials", "30000", "--seed", "3", "--nu-grid", "0:0.6283:3"]
        printed = []
        for flag in ([], ["--workers", "2"]):
            assert cli.main(argv + flag) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert cli.main(argv + ["--workers", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "workers must be positive" in captured.err

    def test_unused_grid_flags_exit_2(self, capsys):
        code = cli.main(["correlation", "--trials", "2000", "--angle-grid", "0:1:2",
                         "--theta-grid", "0.1:0.2:2", "--visibility-grid", "0.5:0.6:2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not use theta-grid" in captured.err

    @pytest.mark.parametrize("argv", (["correlation", "--coin", "shared"], ["calibrate", "--strategy", "abs-flip"],
                                      ["calibrate", "--flip-semantics", "terminate"], ["remedy", "--coin", "shared"],
                                      ["remedy", "--strategy", "cyclic-flip"], ["remedy", "--strategy", "abs-flip"]))
    def test_unused_options_exit_2(self, argv, capsys):
        """The message names the option as its flag spells it, without the dashes."""
        code = cli.main([*argv, "--trials", "1000"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not use {argv[1].lstrip('-')}" in captured.err

    def test_bad_output_path_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.csv"
        code = cli.main(["opposite-axes", "--trials", "1000", "--nu-grid", "0.1:0.1:1", "--out", str(out)])
        assert code == 2

    def test_anomalies_are_not_errors(self, tmp_path):
        # the headline anomaly produces flags, never a nonzero exit
        out = tmp_path / "anomaly.csv"
        code = cli.main([
            "opposite-axes", "--trials", "50000", "--seed", "2",
            "--nu-grid", "0.3141592653589793:0.3141592653589793:1", "--out", str(out),
        ])
        assert code == 0
        _, _, rows = hn.read_csv_table(out)
        assert "exceeds-closed-form-4se" in rows[0]["flags"]

    def test_default_grids_cover_every_subcommand(self, tmp_path):
        for sub in ("correlation", "opposite-axes", "visibility", "audit", "remedy", "calibrate"):
            out = tmp_path / f"{sub}.json"
            code = cli.main([sub, "--trials", "500", "--format", "json", "--out", str(out)])
            assert code == 0, sub
            assert json.loads(out.read_text())["rows"], sub


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("line", [ln for ln in README.read_text().splitlines() if ln.startswith("bctsim ")])
def test_readme_commands_run(tmp_path, line):
    argv = shlex.split(line)[1:]
    argv[argv.index("--trials") + 1] = "2000"
    argv[argv.index("--out") + 1] = str(tmp_path / "out.csv")
    assert cli.main(argv) == 0


def test_strategy_tokens_are_the_calibration_variants_that_continue(capsys):
    """``--strategy`` takes each calibration variant that continues after a reflection, by its label."""
    continuing = [(label, strategy.flip_rule) for label, strategy in hn.CALIBRATION_VARIANTS
                  if strategy.flip_semantics is pr.FlipSemantics.CONTINUE]
    assert list(cli.STRATEGY_TOKENS.items()) == continuing
    assert list(cli.STRATEGY_TOKENS) == ["paper-iic", "cyclic-flip", "abs-flip"]
    with pytest.raises(SystemExit):
        cli.main(["correlation", "--help"])
    assert "  --strategy {abs-flip,cyclic-flip,paper-iic}\n" in capsys.readouterr().out


#: each experiment over small grids; remedy with a theta grid, so that it runs conditioned rows too
SMALL_RUNS = {
    "correlation": ["--angle-grid", "0:3.14:3"],
    "opposite-axes": ["--nu-grid", "0:0.628:3"],
    "visibility": ["--visibility-grid", "0.9:1:2", "--nu-grid", "0.3141:0.3141:1"],
    "audit": ["--theta-grid", "0.95:1.5:3"],
    "remedy": ["--nu-grid", "0.3141:0.3141:1", "--theta-grid", "0.95:1.5:3"],
    "calibrate": ["--angle-grid", "0:6.28:4"],
}


#: per experiment, the cells of each stream's tally: those its rows read
TALLY_CELLS = {"correlation": 2, "opposite-axes": 5, "visibility": 5, "audit": 2, "remedy": 4, "calibrate": 2,
               "conditioned_two_bob_estimate": 4}


@pytest.mark.parametrize("experiment", list(TALLY_CELLS))
def test_no_experiment_row_reads_a_draw_it_does_not_use(experiment, tmp_path, monkeypatch):
    """No row generates the sign c, which none reads, tests the windows unless it reads them, or tallies a spare cell.

    Every generator a row takes is one of a draw it reads, so none is c's
    (draw 1). The one-axis experiments tally ``N`` and ``KEPT_1``;
    ``remedy`` reads ``EQUAL`` and ``KEPT_2``, and
    :func:`~bctsim.harness.conditioned_two_bob_estimate` ``EQUAL``, so
    neither calls ``_in_windows`` and both tally up to ``EQUAL``. Only
    ``opposite-axes`` and ``visibility`` read ``EQUAL_IN_WINDOWS``.
    """
    taken, window_tests, lengths = [], [], set()
    draw_rng, in_windows, kernel_of = hn._draw_rng, hn._in_windows, hn._kernel

    def tallied(*args, **kwargs):
        kernel = kernel_of(*args, **kwargs)
        return lambda *run: lengths.add(len(tally := kernel(*run))) or tally

    monkeypatch.setattr(hn, "_draw_rng", lambda seed, key, d: taken.append(d) or draw_rng(seed, key, d))
    monkeypatch.setattr(hn, "_in_windows", lambda *args: window_tests.append(args) or in_windows(*args))
    monkeypatch.setattr(hn, "_kernel", tallied)
    if experiment == "conditioned_two_bob_estimate":
        hn.conditioned_two_bob_estimate(PI / 10, 1.1, 1000, 0)
    else:
        argv = [experiment, "--trials", "1000", *SMALL_RUNS[experiment], "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 0
    assert taken and hn.SIGN not in taken
    assert (window_tests == []) is (experiment not in ("opposite-axes", "visibility"))
    assert lengths == {TALLY_CELLS[experiment]}


#: nu at both ends of [0, pi/5], its smallest positive float, the orthogonal setting and the float below pi/5
WINDOW_NUS = [0.0, 5e-324, PI / 10, math.nextafter(PI / 5, 0.0), PI / 5]


def _two_windows(theta, windows):
    """The window test as two windows: the first closed, the second open below."""
    (w1_lo, w1_hi), (w2_lo, w2_hi) = windows
    return ((theta >= w1_lo) & (theta <= w1_hi)) | ((theta > w2_lo) & (theta <= w2_hi))


@pytest.mark.parametrize("nu", WINDOW_NUS + np.random.default_rng(41).uniform(0.0, PI / 5, 20).tolist())
def test_window_test_is_the_union_of_the_two_windows(nu):
    """``_in_windows`` tests raw theta outputs against two thresholds; it equals the two-window test beside them.

    The lower threshold's output passes and the output below it fails; the
    upper one's passes and the output above it, where there is one, fails.
    At the reachable thetas nearest each window end, two either side, and
    at and one output beside both thresholds, the raw test equals the
    two-window test of the outputs' thetas, as an array and one output at a
    time.
    """
    windows = an.interval_windows(nu)
    (w1_lo, w1_hi), (w2_lo, w2_hi) = windows
    assert w1_hi == w2_lo and w1_lo <= w1_hi <= w2_hi
    outputs = hn._window_outputs(windows)
    lo, top = (int(x) for x in outputs)
    assert lo % 2**11 == 0 and top % 2**11 == 2**11 - 1
    assert hn._in_windows(np.array([lo, top], dtype=np.uint64), outputs).all()
    outside = [x for x in (lo - 1, top + 1) if x < 2**64]
    assert not hn._in_windows(np.array(outside, dtype=np.uint64), outputs).any()
    beside = [x + d for x in (lo, top) for d in (-1, 0, 1) if x + d < 2**64]
    raw = np.union1d(outputs_near([w1_lo, w1_hi, w2_hi], 2), np.array(beside, dtype=np.uint64))
    theta = theta_of(raw)
    assert hn._in_windows(raw, outputs).tolist() == _two_windows(theta, windows).tolist()
    for x, t in zip(raw, theta.tolist()):
        assert bool(hn._in_windows(x, outputs)) is bool(_two_windows(t, windows)), (nu, int(x))


def test_every_estimate_is_a_tally_rate(monkeypatch):
    """``run_experiment``, both conditioned estimators and the finish steps read each rate off ``_rate``.

    Both ``opposite-axes`` rows exceed the closed form, so each reads its
    in-window rate there too; each ``remedy`` row reads its ``ab2`` there.
    """
    rate = hn._rate
    assert rate(np.array([8, 2, 5]), hn.KEPT_1) == (0.25, math.sqrt(0.25 * 0.75 / 8))
    calls = []
    monkeypatch.setattr(hn, "_rate", lambda tally, hits: calls.append(hits) or rate(tally, hits))
    hn.run_experiment(make_config(trials=2_000, nu_grid=(0.0, PI / 10)))
    hn.run_experiment(make_config(experiment="remedy", trials=2_000))
    hn.conditioned_two_bob_estimate(PI / 10, 0.35 * PI, 2_000, 11)
    hn.conditioned_pair_estimate(PI / 2, PI, 0.35 * PI, 2_000, 13)
    assert calls == [hn.EQUAL, hn.EQUAL_IN_WINDOWS] * 2 + [hn.EQUAL, hn.KEPT_2] * 5 + [hn.EQUAL, hn.KEPT_1]
