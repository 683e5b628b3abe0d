import numpy as np
import pytest

from riskbandit import ConfigError, ExpExp, MVLCB, MaRaB, UCB
from riskbandit.config import (
    build_problem,
    load_experiment_spec,
    parse_experiment_dict,
    resolve_policy,
    resolved_config_dict,
)


def minimal_doc(**overrides):
    doc = {
        "seed": 7,
        "horizon": 100,
        "runs": 4,
        "problem": {"generator": "proof_of_concept", "k": 5},
        "policies": [{"policy": "ucb"}],
    }
    doc.update(overrides)
    return doc


class TestParseExperimentDict:
    def test_minimal_with_defaults(self):
        spec = parse_experiment_dict(minimal_doc())
        assert spec.seed == 7
        assert spec.horizon == 100
        assert spec.runs == 4
        assert spec.instances == 1
        assert spec.out == "results"
        assert spec.format == "csv"
        assert spec.problem.generator == "proof_of_concept"
        assert spec.problem.params == {"k": 5}
        entry = spec.policies[0]
        assert entry.kind == "ucb"
        assert entry.label == "ucb"
        assert entry.params == {"c": 0.001}
        assert entry.sweep is None

    def test_top_level_errors(self):
        doc = minimal_doc()
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed: required"):
            parse_experiment_dict(doc)
        with pytest.raises(ConfigError, match="bogus: unknown key"):
            parse_experiment_dict(minimal_doc(bogus=1))
        with pytest.raises(ConfigError, match="expected a mapping"):
            parse_experiment_dict([1, 2])
        with pytest.raises(ConfigError, match="seed"):
            parse_experiment_dict(minimal_doc(seed=-5))
        with pytest.raises(ConfigError, match="horizon: expected an integer"):
            parse_experiment_dict(minimal_doc(horizon=2.5))
        with pytest.raises(ConfigError, match="horizon: expected an integer"):
            parse_experiment_dict(minimal_doc(horizon=True))
        with pytest.raises(ConfigError, match="runs: must be >= 1"):
            parse_experiment_dict(minimal_doc(runs=0))
        with pytest.raises(ConfigError, match="threads: unknown key"):
            parse_experiment_dict({**minimal_doc(), "threads": 1})
        with pytest.raises(ConfigError, match="format: expected csv or json"):
            parse_experiment_dict(minimal_doc(format="xml"))
        with pytest.raises(ConfigError, match="out: expected a non-empty string"):
            parse_experiment_dict(minimal_doc(out=""))

    def test_problem_errors(self):
        with pytest.raises(ConfigError, match="problem: required"):
            parse_experiment_dict({k: v for k, v in minimal_doc().items() if k != "problem"})
        with pytest.raises(ConfigError, match="problem.generator: required"):
            parse_experiment_dict(minimal_doc(problem={}))
        with pytest.raises(ConfigError, match="problem.generator: unknown generator"):
            parse_experiment_dict(minimal_doc(problem={"generator": "nope"}))
        with pytest.raises(ConfigError, match="problem.k: expected an integer"):
            parse_experiment_dict(
                minimal_doc(problem={"generator": "proof_of_concept", "k": "five"})
            )
        with pytest.raises(ConfigError, match="problem.whatever: unknown key"):
            parse_experiment_dict(
                minimal_doc(problem={"generator": "proof_of_concept", "whatever": 1})
            )
        with pytest.raises(ConfigError, match="problem.path: required"):
            parse_experiment_dict(minimal_doc(problem={"generator": "matrix"}))

    def test_policy_errors(self):
        with pytest.raises(ConfigError, match="policies: expected a non-empty list"):
            parse_experiment_dict(minimal_doc(policies=[]))
        with pytest.raises(ConfigError, match=r"policies\[0\].policy: required"):
            parse_experiment_dict(minimal_doc(policies=[{}]))
        with pytest.raises(ConfigError, match=r"policies\[0\].policy: unknown policy"):
            parse_experiment_dict(minimal_doc(policies=[{"policy": "thompson"}]))
        with pytest.raises(ConfigError, match=r"policies\[1\].alpha: unknown key"):
            parse_experiment_dict(
                minimal_doc(policies=[{"policy": "ucb"}, {"policy": "ucb", "alpha": 0.2}])
            )
        with pytest.raises(ConfigError, match=r"policies\[0\].c: expected a number"):
            parse_experiment_dict(minimal_doc(policies=[{"policy": "ucb", "c": True}]))
        with pytest.raises(ConfigError, match="duplicate label 'ucb'"):
            parse_experiment_dict(minimal_doc(policies=[{"policy": "ucb"}, {"policy": "ucb"}]))
        with pytest.raises(ConfigError, match=r"policies\[0\].label"):
            parse_experiment_dict(minimal_doc(policies=[{"policy": "ucb", "label": ""}]))
        with pytest.raises(ConfigError, match="does not support auto"):
            parse_experiment_dict(minimal_doc(policies=[{"policy": "ucb", "c": "auto"}]))

    def test_distinct_labels_allow_same_policy(self):
        spec = parse_experiment_dict(
            minimal_doc(
                policies=[
                    {"policy": "ucb", "label": "ucb_small", "c": 1e-6},
                    {"policy": "ucb", "label": "ucb_big", "c": 1.0},
                ]
            )
        )
        assert [p.label for p in spec.policies] == ["ucb_small", "ucb_big"]

    def test_sweep_parsing(self):
        spec = parse_experiment_dict(
            minimal_doc(
                policies=[
                    {"policy": "marab", "sweep": {"c": [1e-6, 1e-3], "alpha": [0.1, 0.2]}}
                ]
            )
        )
        assert spec.policies[0].sweep == {"c": [1e-6, 1e-3], "alpha": [0.1, 0.2]}
        with pytest.raises(ConfigError, match=r"sweep.alpha: not a parameter"):
            parse_experiment_dict(
                minimal_doc(policies=[{"policy": "ucb", "sweep": {"alpha": [0.1]}}])
            )
        with pytest.raises(ConfigError, match=r"sweep.c: expected a non-empty list"):
            parse_experiment_dict(minimal_doc(policies=[{"policy": "ucb", "sweep": {"c": []}}]))

    def test_auto_defaults_stay_symbolic_until_resolution(self):
        spec = parse_experiment_dict(
            minimal_doc(policies=[{"policy": "mvlcb"}, {"policy": "expexp", "label": "ee"}])
        )
        assert spec.policies[0].params == {"rho": 1.0, "delta": "auto"}
        assert spec.policies[1].params == {"rho": 1.0, "tau": "auto"}


class TestLoadExperimentSpec:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "seed: 3\nhorizon: 50\nruns: 2\n"
            "problem: {generator: proof_of_concept, k: 4}\n"
            "policies:\n  - policy: min\n"
        )
        spec = load_experiment_spec(path)
        assert spec.seed == 3
        assert spec.policies[0].kind == "min"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read spec"):
            load_experiment_spec(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_experiment_spec(path)


class TestBuildProblem:
    def test_proof_of_concept_ignores_instance(self):
        spec = parse_experiment_dict(minimal_doc()).problem
        a = build_problem(spec, seed=1, instance=0)
        b = build_problem(spec, seed=99, instance=3)
        assert np.array_equal(a.means, b.means)
        assert a.k == 5

    def test_mixture_varies_by_instance_not_call(self):
        spec = parse_experiment_dict(
            minimal_doc(problem={"generator": "mixture", "k": 3})
        ).problem
        a0 = build_problem(spec, seed=5, instance=0)
        a0_again = build_problem(spec, seed=5, instance=0)
        a1 = build_problem(spec, seed=5, instance=1)
        assert a0.arms == a0_again.arms
        assert a0.arms != a1.arms

    def test_matrix_from_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.1,0.9\n0.3,0.5\n")
        spec = parse_experiment_dict(
            minimal_doc(problem={"generator": "matrix", "path": str(path)})
        ).problem
        problem = build_problem(spec, seed=0, instance=0)
        assert problem.k == 2
        assert problem.means[0] == pytest.approx(0.5)

    def test_matrix_rescale_flag(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2.0,6.0\n4.0,4.0\n")
        base = {"generator": "matrix", "path": str(path)}
        with pytest.raises(ConfigError, match="outside"):
            build_problem(parse_experiment_dict(minimal_doc(problem=base)).problem, 0, 0)
        spec = parse_experiment_dict(minimal_doc(problem=base | {"rescale": True})).problem
        assert build_problem(spec, 0, 0).means[0] == pytest.approx(0.5)

    def test_battery_deterministic_per_instance(self):
        spec = parse_experiment_dict(
            minimal_doc(problem={"generator": "battery", "n_arms": 3, "n_realizations": 8})
        ).problem
        a = build_problem(spec, seed=2, instance=0)
        b = build_problem(spec, seed=2, instance=0)
        c = build_problem(spec, seed=2, instance=1)
        assert a.arms == b.arms
        assert a.arms != c.arms

    def test_generator_value_errors_become_config_errors(self):
        spec = parse_experiment_dict(
            minimal_doc(problem={"generator": "proof_of_concept", "k": 1})
        ).problem
        with pytest.raises(ConfigError, match="problem: "):
            build_problem(spec, seed=0, instance=0)


class TestResolvePolicy:
    def _entry(self, doc):
        return parse_experiment_dict(minimal_doc(policies=[doc])).policies[0]

    def test_plain_policies(self):
        assert resolve_policy(self._entry({"policy": "ucb", "c": 0.5}), k=5, horizon=100) == UCB(c=0.5)
        assert resolve_policy(
            self._entry({"policy": "marab", "c": 0.01, "alpha": 0.3}), k=5, horizon=100
        ) == MaRaB(c=0.01, alpha=0.3)

    def test_delta_auto(self):
        policy = resolve_policy(self._entry({"policy": "mvlcb"}), k=5, horizon=200)
        assert policy == MVLCB(rho=1.0, delta=1.0 / 200**2)

    def test_tau_auto_formula_and_clamp(self):
        policy = resolve_policy(self._entry({"policy": "expexp"}), k=2, horizon=14000)
        assert policy == ExpExp(rho=1.0, tau=200)
        # formula value 50 * (50/14)^(2/3) = 117 exceeds the horizon: clamp
        clamped = resolve_policy(self._entry({"policy": "expexp"}), k=50, horizon=50)
        assert clamped.tau == 50

    def test_invalid_values_name_the_label(self):
        entry = self._entry({"policy": "marab", "alpha": 2.0, "label": "bad_marab"})
        with pytest.raises(ConfigError, match="policy 'bad_marab'"):
            resolve_policy(entry, k=5, horizon=100)


class TestResolvedConfigDict:
    def test_echo_structure(self):
        spec = parse_experiment_dict(
            minimal_doc(policies=[{"policy": "marab", "sweep": {"c": [0.1]}}])
        )
        doc = resolved_config_dict(spec)
        assert doc["seed"] == 7
        assert "threads" not in doc
        assert doc["problem"] == {"generator": "proof_of_concept", "k": 5}
        assert doc["policies"] == [
            {"policy": "marab", "label": "marab", "c": 0.001, "alpha": 0.2, "sweep": {"c": [0.1]}}
        ]
