import json
import math

import pytest

import riskbandit.cli as cli
import riskbandit.harness as harness
from riskbandit.cli import main

SPEC_TEXT = """\
seed: 7
horizon: 30
runs: 2
problem:
  generator: proof_of_concept
  k: 3
policies:
  - policy: ucb
  - policy: min
"""

SWEEP_TEXT = """\
seed: 7
horizon: 30
runs: 2
problem:
  generator: proof_of_concept
  k: 3
policies:
  - policy: marab
    sweep:
      c: [1.0e-3, 1.0]
      alpha: [0.1, 0.4]
  - policy: min
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(SPEC_TEXT)
    return path


def read_csv(path):
    comments, rows = [], []
    for line in path.read_text().splitlines():
        (comments if line.startswith("# ") else rows).append(line)
    return comments, rows


class TestRun:
    def test_outputs_and_schema(self, spec_file, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--spec", str(spec_file), "--out", str(out)]) == 0
        for label in ("ucb", "min"):
            for stem in ("regret_curve", "sorted_rewards", "sorted_final_regret"):
                assert (out / f"{stem}_{label}.csv").exists()
        assert (out / "summary.json").exists()

        comments, rows = read_csv(out / "regret_curve_ucb.csv")
        assert comments[0] == "# riskbandit-csv 1"
        assert comments[1] == "# seed=7"
        assert comments[2].startswith("# config={")
        assert rows[0] == "t,mean_theoretical_regret,mean_empirical_regret,std"
        assert len(rows) == 1 + 30  # header + one row per round
        assert rows[1].startswith("1,")

        _, reward_rows = read_csv(out / "sorted_rewards_ucb.csv")
        assert reward_rows[0] == "rank,mean_reward"
        assert len(reward_rows) == 1 + 30
        values = [float(r.split(",")[1]) for r in reward_rows[1:]]
        assert values == sorted(values)

        _, final_rows = read_csv(out / "sorted_final_regret_min.csv")
        assert final_rows[0] == "rank,mean_final_regret"
        assert len(final_rows) == 1 + 1  # one instance

        printed = capsys.readouterr().out
        assert printed.count("wrote ") == 7

    def test_summary_contents(self, spec_file, tmp_path):
        out = tmp_path / "results"
        main(["run", "--spec", str(spec_file), "--out", str(out)])
        doc = json.loads((out / "summary.json").read_text())
        assert doc["schema"] == "riskbandit-json 1"
        assert doc["command"] == "run"
        assert doc["seed"] == 7
        assert doc["config"]["threads"] == 1
        assert doc["config"]["policies"][0] == {"policy": "ucb", "label": "ucb", "c": 0.001}
        assert set(doc["policies"]) == {"ucb", "min"}
        for stats in doc["policies"].values():
            assert isinstance(stats["mean_final_regret"], float)
            assert isinstance(stats["mean_final_regret_emp"], float)
        assert set(doc["timing"]) == {"started_at", "wall_seconds", "play"}
        # one kernel call per (instance, policy)
        assert {label: play["kernel_calls"] for label, play in doc["timing"]["play"].items()} == {
            "ucb": 1,
            "min": 1,
        }
        assert all(play["seconds"] >= 0.0 for play in doc["timing"]["play"].values())

    def test_rerun_byte_identical(self, spec_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--spec", str(spec_file), "--out", str(out1)])
        main(["run", "--spec", str(spec_file), "--out", str(out2)])
        for name in ("regret_curve_ucb.csv", "sorted_rewards_min.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        a = json.loads((out1 / "summary.json").read_text())
        b = json.loads((out2 / "summary.json").read_text())
        assert a["policies"] == b["policies"]
        # summary keeps full execution provenance; only the out dir may differ
        assert {k: v for k, v in a["config"].items() if k != "out"} == {
            k: v for k, v in b["config"].items() if k != "out"
        }

    def test_seed_override_changes_results(self, spec_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--spec", str(spec_file), "--out", str(out1)])
        main(["run", "--spec", str(spec_file), "--out", str(out2), "--seed", "8"])
        assert (out1 / "regret_curve_ucb.csv").read_bytes() != (
            out2 / "regret_curve_ucb.csv"
        ).read_bytes()
        assert "# seed=8" in (out2 / "regret_curve_ucb.csv").read_text()

    def test_json_format(self, spec_file, tmp_path):
        out = tmp_path / "results"
        main(["run", "--spec", str(spec_file), "--out", str(out), "--format", "json"])
        doc = json.loads((out / "regret_curve_ucb.json").read_text())
        assert doc["schema"] == "riskbandit-json 1"
        assert doc["seed"] == 7
        assert doc["columns"] == ["t", "mean_theoretical_regret", "mean_empirical_regret", "std"]
        assert len(doc["rows"]) == 30
        assert doc["rows"][0][0] == 1

    def test_bad_spec_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(SPEC_TEXT + "bogus: 1\n")
        assert main(["run", "--spec", str(path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_spec_file_exit_1(self, tmp_path):
        assert main(["run", "--spec", str(tmp_path / "absent.yaml")]) == 1

    def test_bad_seed_override_exit_1(self, spec_file, capsys):
        assert main(["run", "--spec", str(spec_file), "--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_empty_out_override_exit_1(self, spec_file, tmp_path, capsys, monkeypatch):
        # as a spec's `out: ""` does; the tables would land in the current directory
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--spec", str(spec_file), "--out", ""]) == 1
        assert capsys.readouterr().err == "error: --out: expected a non-empty string\n"
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_matrix_path_exit_1(self, tmp_path, capsys, kind):
        target = tmp_path / "rewards.csv"
        if kind == "directory":
            target.mkdir()
        path = tmp_path / "matrix.yaml"
        path.write_text(SPEC_TEXT.replace("proof_of_concept\n  k: 3", f"matrix\n  path: {target}"))
        assert main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: problem.path: cannot read {target}: ")
        assert len(err.splitlines()) == 1
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_nan_policy_parameter_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nan.yaml"
        path.write_text(SPEC_TEXT.replace("- policy: min", "- {policy: marab, c: .nan}"))
        assert main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: policies[1]: policy 'marab': c must be non-negative and finite")
        assert len(err.splitlines()) == 1
        # the bad second policy is caught before the first one runs
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_labels_sharing_a_file_name_exit_1(self, tmp_path, capsys):
        path = tmp_path / "clash.yaml"
        path.write_text(
            SPEC_TEXT.replace("- policy: ucb", "- {policy: ucb, label: a/b}").replace(
                "- policy: min", "- {policy: min, label: a_b}"
            )
        )
        assert main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: policies: labels 'a/b' and 'a_b' both name files 'a_b'")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.rglob("*.csv"))

    def test_nan_generator_parameter_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nan.yaml"
        path.write_text(SPEC_TEXT.replace("k: 3", "k: 3\n  delta_max: .nan"))
        assert main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: problem: delta_max must be non-negative and finite")
        assert len(err.splitlines()) == 1

    def test_expexp_tau_below_k_exit_1(self, tmp_path, capsys):
        path = tmp_path / "tau.yaml"
        path.write_text(SPEC_TEXT.replace("- policy: min", "- {policy: expexp, rho: 1.0, tau: 2}"))
        assert main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: policies[1]: policy 'expexp': tau=2 cannot cover one pull of each of 3 arms")
        assert len(err.splitlines()) == 1
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_each_instance_built_once(self, tmp_path, monkeypatch):
        built = []
        real_build = cli.build_problem

        def counting_build(problem, seed, instance):
            built.append(instance)
            return real_build(problem, seed, instance)

        monkeypatch.setattr(cli, "build_problem", counting_build)
        path = tmp_path / "exp.yaml"
        path.write_text(SPEC_TEXT + "instances: 3\n")  # two policies
        assert main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 0
        assert built == [0, 1, 2]

    def test_each_table_drawn_once(self, tmp_path, monkeypatch):
        drawn = []
        real_draw = harness.draw_reward_table

        def counting_draw(problem, seed, run_index, horizon):
            drawn.append((seed, run_index))
            return real_draw(problem, seed, run_index, horizon)

        monkeypatch.setattr(harness, "draw_reward_table", counting_draw)
        path = tmp_path / "exp.yaml"
        path.write_text(SPEC_TEXT + "instances: 3\n")  # two policies, two runs
        assert main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(drawn) == 3 * 2
        assert len(set(drawn)) == len(drawn)

    def test_instances_share_one_kernel_call_per_policy(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(SPEC_TEXT + "instances: 3\n")  # two policies
        out = tmp_path / "out"
        assert main(["run", "--spec", str(path), "--out", str(out)]) == 0
        play = json.loads((out / "summary.json").read_text())["timing"]["play"]
        assert {label: p["kernel_calls"] for label, p in play.items()} == {"ucb": 1, "min": 1}
        _, rows = read_csv(out / "sorted_final_regret_ucb.csv")
        assert len(rows) == 1 + 3  # one final regret per instance

    def test_unallocatable_tables_exit_2(self, tmp_path, capsys):
        # numpy refuses the 437 TiB reward array up front, allocating nothing
        path = tmp_path / "exp.yaml"
        path.write_text(SPEC_TEXT.replace("horizon: 30", "horizon: 10000000000000"))
        assert main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and len(err.splitlines()) == 1
        assert not list(tmp_path.rglob("*.csv"))

    def test_unwritable_out_exit_2(self, spec_file, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        code = main(["run", "--spec", str(spec_file), "--out", str(blocker / "sub")])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err


class TestSweep:
    def test_grid_and_base_cells(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text(SWEEP_TEXT)
        out = tmp_path / "results"
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 0

        _, rows = read_csv(out / "sweep_marab.csv")
        assert rows[0] == "c,alpha,mean_final_regret,mean_final_regret_emp,std_final_regret"
        assert len(rows) == 1 + 4
        assert rows[1].startswith("0.001,0.1,")

        _, base_rows = read_csv(out / "sweep_min.csv")
        assert base_rows[0] == "mean_final_regret,mean_final_regret_emp,std_final_regret"
        assert len(base_rows) == 1 + 1

        doc = json.loads((out / "sweep_summary.json").read_text())
        assert doc["command"] == "sweep"
        assert doc["cells"] == {"marab": 4, "min": 1}
        # with k = 3 a call has room for the records of one cell only
        assert doc["timing"]["play"]["marab"]["kernel_calls"] == 4
        assert doc["timing"]["play"]["min"]["kernel_calls"] == 1

    def test_kernel_calls_count_packed_cells(self, tmp_path):
        # with k = 8 the records of four MaRaB cells fit in the reward array's
        # size, and alpha * horizon <= 1 keeps no sorted rows; UCB cells are
        # never packed
        path = tmp_path / "sweep.yaml"
        path.write_text(
            SWEEP_TEXT.replace("k: 3", "k: 8")
            .replace("alpha: [0.1, 0.4]", "alpha: [0.01, 0.02]")
            .replace("  - policy: min\n", "  - policy: ucb\n    sweep: {c: [0.1, 0.5]}\n")
        )
        out = tmp_path / "results"
        assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "sweep_summary.json").read_text())
        assert doc["cells"] == {"marab": 4, "ucb": 2}
        calls = {label: play["kernel_calls"] for label, play in doc["timing"]["play"].items()}
        assert calls == {"marab": 1, "ucb": 2}
        assert doc["config"]["threads"] == 1

    def test_invalid_grid_value_exit_1(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text(SWEEP_TEXT.replace("c: [1.0e-3, 1.0]", "c: [1.0e-3, .inf]"))
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "c must be non-negative and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_policy, message",
        [
            ("{policy: ucb, c: .nan}", "error: policies[1]: policy 'ucb': c must be positive and finite"),
            ("{policy: ucb, sweep: {c: [1.0, -1.0]}}", "error: policies[1]: policy 'ucb': sweep cell {'c': -1.0}: c must be positive"),
        ],
    )
    def test_bad_later_policy_exit_1_before_any_output(self, tmp_path, capsys, bad_policy, message):
        # the MaRaB grid comes first and is valid; nothing may be written
        path = tmp_path / "sweep.yaml"
        path.write_text(SWEEP_TEXT.replace("- policy: min", f"- {bad_policy}"))
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert len(err.splitlines()) == 1
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_labels_sharing_a_file_name_exit_1(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text(
            SWEEP_TEXT.replace("- policy: marab", "- policy: marab\n    label: m/1").replace(
                "- policy: min", "- {policy: min, label: m_1}"
            )
        )
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: policies: labels 'm/1' and 'm_1' both name files 'm_1'")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.rglob("*.csv"))

    def test_unallocatable_tables_exit_2(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text(SWEEP_TEXT.replace("horizon: 30", "horizon: 10000000000000"))
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and len(err.splitlines()) == 1
        assert not list(tmp_path.rglob("*.csv"))

    def test_tables_drawn_once(self, tmp_path, monkeypatch):
        drawn = []
        real_draw = harness.draw_reward_table

        def counting_draw(problem, seed, run_index, horizon):
            drawn.append(run_index)
            return real_draw(problem, seed, run_index, horizon)

        monkeypatch.setattr(harness, "draw_reward_table", counting_draw)
        path = tmp_path / "sweep.yaml"
        path.write_text(SWEEP_TEXT)  # 4 + 1 cells, two runs
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out")]) == 0
        assert drawn == [0, 1]


class TestBound:
    GOLDEN = {
        "n_arms": 2,
        "density_floor": 1.0,
        "max_mean_gap": 0.1,
        "min_infimum_gap": 0.1,
        "t": 100,
        "delta": 0.05,
    }

    def _write(self, tmp_path, doc):
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(doc))
        return path

    def test_golden_value(self, tmp_path, capsys):
        path = self._write(tmp_path, self.GOLDEN)
        assert main(["bound", "--inputs", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_policy"]["high_prob"] == pytest.approx(8.394049640102027, abs=1e-12)
        assert doc["min_policy"]["expectation"] == pytest.approx(11.0035, abs=1e-3)
        assert doc["min_policy_aligned"]["high_prob"] == pytest.approx(8.394049640102027, abs=1e-12)
        assert doc["ucb"] is None
        assert doc["inputs"]["n_arms"] == 2

    def test_mean_gaps_feed_ucb(self, tmp_path, capsys):
        path = self._write(tmp_path, {**self.GOLDEN, "mean_gaps": [0.5]})
        assert main(["bound", "--inputs", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = 8.0 * math.log(100.0) / 0.5 + (1.0 + math.pi**2 / 3.0) * 0.5
        assert doc["ucb"] == pytest.approx(expected, abs=1e-12)

    def test_side_condition_note_surfaces(self, tmp_path, capsys):
        path = self._write(tmp_path, {**self.GOLDEN, "t": 1})
        assert main(["bound", "--inputs", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_policy_aligned"]["expectation"] is None
        assert "t >" in doc["min_policy_aligned"]["note"]

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "inputs.json"
        path.write_text("{not json")
        assert main(["bound", "--inputs", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        path = self._write(tmp_path, {**self.GOLDEN, "gap": 0.1})
        assert main(["bound", "--inputs", str(path)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_invalid_value_exit_1(self, tmp_path, capsys):
        path = self._write(tmp_path, {**self.GOLDEN, "delta": 2.0})
        assert main(["bound", "--inputs", str(path)]) == 1
        assert "delta" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["bound", "--inputs", str(tmp_path / "none.json")]) == 1

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"mean_gaps": [None]}, "float() argument"),
            ({"t": 100.5}, "t must be an integer"),
            ({"n_arms": "2"}, "n_arms must be an integer"),
            ({"min_infimum_gap": 0.0}, "min_infimum_gap must be positive"),
            ({"epsilon": 0.1}, "unknown key 'epsilon'"),
            ({"max_mean_gap": math.inf}, "max_mean_gap must be a finite number"),
            ({"density_floor": math.nan}, "density_floor must be a finite number"),
            ({"mean_gaps": [-0.5]}, "mean_gaps must be non-negative and finite"),
        ],
        ids=[
            "null_gap", "fractional_t", "string_n_arms", "zero_infimum_gap", "epsilon",
            "infinite_mean_gap", "nan_density_floor", "negative_ucb_gap",
        ],
    )
    def test_bad_input_one_line_exit_1(self, tmp_path, capsys, override, message):
        path = self._write(tmp_path, {**self.GOLDEN, **override})
        assert main(["bound", "--inputs", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1


class TestCheckLemma:
    BASE = ["check-lemma", "--center", "0.5", "--radius", "0.5",
            "--t", "10", "--epsilon", "0.1", "--trials", "4000"]

    def test_single_arm(self, capsys):
        assert main(self.BASE) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bound"] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert doc["empirical_prob"] == pytest.approx(0.9**10, abs=0.03)
        assert doc["passed"] is True
        assert doc["seed"] == 0

    def test_multi_arm_union(self, capsys):
        assert main(self.BASE + ["--arms", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["arms"] == 3
        assert doc["bound"] == pytest.approx(3.0 * math.exp(-1.0), abs=1e-12)
        assert doc["passed"] is True

    def test_deterministic_given_seed(self, capsys):
        main(self.BASE + ["--seed", "5"])
        first = capsys.readouterr().out
        main(self.BASE + ["--seed", "5"])
        assert capsys.readouterr().out == first

    def test_flag_validation_exit_1(self, capsys):
        assert main(self.BASE[:-2] + ["--trials", "0"]) == 1
        assert "--trials" in capsys.readouterr().err
        bad_radius = ["check-lemma", "--center", "0.5", "--radius", "0.9",
                      "--t", "5", "--epsilon", "0.1", "--trials", "10"]
        assert main(bad_radius) == 1
        assert "--center/--radius" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0"])
    def test_epsilon_must_be_positive_and_finite(self, capsys, epsilon):
        argv = self.BASE[:-4] + ["--epsilon", epsilon, "--trials", "10"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --epsilon must be positive and finite")
        assert len(err.splitlines()) == 1

    def test_unallocatable_trials_exit_2(self, tmp_path, capsys, monkeypatch):
        # numpy refuses the 8.9 PiB trial array up front, allocating nothing
        monkeypatch.chdir(tmp_path)
        assert main(self.BASE[:-1] + ["10000000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and len(err.splitlines()) == 1
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("arms", ["1", "3"])
    def test_nan_center_exit_1(self, capsys, arms):
        argv = ["check-lemma", "--center", "nan", "--radius", "0.1", "--arms", arms,
                "--t", "5", "--epsilon", "0.1", "--trials", "10"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --center/--radius: ")
        assert len(err.splitlines()) == 1


class TestArgumentParsing:
    def test_missing_required_flag(self, capsys):
        assert main(["run"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "riskbandit" in capsys.readouterr().out
