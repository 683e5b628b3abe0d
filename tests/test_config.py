import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("labels", [("a/b", "a_b"), ("m 1", "m_1"), ("x.y", "x?y")])
    def test_labels_must_differ_as_file_names(self, labels):
        policies = [{"policy": "ucb", "label": label} for label in labels]
        with pytest.raises(ConfigError, match=r"^policies: labels .* both name files"):
            parse_experiment_dict(minimal_doc(policies=policies))

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

    def test_invalid_values_name_the_path(self):
        spec = parse_experiment_dict(
            minimal_doc(policies=[{"policy": "min"}, {"policy": "ucb", "c": -1}])
        )
        with pytest.raises(ConfigError, match=r"^policies\[1\]: policy 'ucb': c must be "):
            resolve_policy(spec.policies[1], k=5, horizon=100)

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


# ---------------------------------------------------------------------------
# property: every malformed document fails as a ConfigError naming its path

_GENERATORS = {
    "proof_of_concept": {"k": st.integers(2, 30), "mu_star": st.floats(0.4, 0.6)},
    "mixture": {"k": st.integers(2, 30)},
    "matrix": {"path": st.just("rewards.csv"), "rescale": st.booleans()},
    "battery": {"n_arms": st.integers(2, 10), "n_realizations": st.integers(2, 50)},
}
_POLICY_PARAMS = {
    "ucb": {"c": st.floats(0.001, 2.0)},
    "min": {},
    "marab": {"c": st.floats(0.0, 2.0), "alpha": st.floats(0.01, 0.9)},
    "mvlcb": {"rho": st.floats(0.1, 2.0), "delta": st.one_of(st.just("auto"), st.floats(0.01, 0.5))},
    "expexp": {"rho": st.floats(0.1, 2.0), "tau": st.one_of(st.just("auto"), st.integers(1, 50))},
}
_INT_KEYS = {"seed", "horizon", "runs", "instances", "k", "n_arms", "n_realizations", "tau"}
_BOOL_KEYS = {"rescale"}
_STR_KEYS = {"out", "label", "path"}
_ENUM_KEYS = {"format", "generator", "policy"}


@st.composite
def _params(draw, strategies):
    keys = draw(st.lists(st.sampled_from(sorted(strategies)), unique=True)) if strategies else []
    return {key: draw(strategies[key]) for key in keys}


@st.composite
def valid_docs(draw):
    generator = draw(st.sampled_from(sorted(_GENERATORS)))
    problem = {"generator": generator, **draw(_params(_GENERATORS[generator]))}
    if generator == "matrix":
        problem["path"] = "rewards.csv"
    policies = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(_POLICY_PARAMS)))
        entry = {"policy": kind, "label": f"lab_{'abc'[i]}", **draw(_params(_POLICY_PARAMS[kind]))}
        sweepable = sorted(_POLICY_PARAMS[kind])
        if sweepable and draw(st.booleans()):
            key = draw(st.sampled_from(sweepable))
            values = st.integers(1, 50) if key == "tau" else st.floats(0.01, 0.5)
            entry["sweep"] = {key: draw(st.lists(values, min_size=1, max_size=3))}
        policies.append(entry)
    doc = {
        "seed": draw(st.integers(0, 2**64 - 1)),
        "horizon": draw(st.integers(1, 500)),
        "runs": draw(st.integers(1, 10)),
        "problem": problem,
        "policies": policies,
    }
    for key, strategy in (
        ("instances", st.integers(1, 5)),
        ("out", st.just("results_dir")),
        ("format", st.sampled_from(["csv", "json"])),
    ):
        if draw(st.booleans()):
            doc[key] = draw(strategy)
    return doc


def _nodes(node, path=""):
    """``(path, container, key)`` of every node below ``node``, paths as the parser prints them."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            child = f"{path}.{key}" if path else str(key)
        else:
            child = f"{path}[{key}]"
        yield child, node, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value, child)


def _leaf_key(path):
    return path.rsplit(".", 1)[-1].split("[", 1)[0]


def _bad_values(path, value):
    """Values that are wrong for the node at ``path`` (type, enum or range)."""
    key = _leaf_key(path)
    if isinstance(value, dict):
        return [None, 3, "xyz", [1]]
    if isinstance(value, list):
        # policies and sweep value lists must be non-empty lists
        return [None, 3, "xyz", {}, []]
    if key in _INT_KEYS:
        bad = [None, "xyz", [], {}, 1.5, True]
        return bad + ([-1, 2**64] if key == "seed" else [0, -3] if key in {"horizon", "runs", "instances"} else [])
    if key in _BOOL_KEYS:
        return [None, 1, "xyz", []]
    if key in _STR_KEYS:
        return [None, 1, [], {}, True] + ([""] if key != "path" else [])
    if key in _ENUM_KEYS:
        return ["xyz", None, 1, [], {"a": 1}]
    # float parameters, "auto" where allowed
    return [None, "xyz", [], {}, True, 10**400]


# a key, then ``.key`` or ``[index]`` steps, then ": "; keys may be empty
DOTTED_PATH = re.compile(r"^\w*(\[\d+\])*(\.\w*(\[\d+\])*)*: ")


def _assert_path_error(doc, path):
    with pytest.raises(ConfigError) as info:
        parse_experiment_dict(doc)
    message = str(info.value)
    assert DOTTED_PATH.match(message), message
    assert message.startswith(path), (path, message)


_FUZZ = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True) | st.text("xyz", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("xyz", max_size=3), inner, max_size=3),
    max_leaves=6,
)


class TestMalformedSpecs:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(doc=valid_docs(), data=st.data())
    def test_bad_value_names_its_path(self, doc, data):
        parse_experiment_dict(copy.deepcopy(doc))  # the base document is valid
        path, container, key = data.draw(st.sampled_from(list(_nodes(doc))))
        container[key] = data.draw(st.sampled_from(_bad_values(path, container[key])))
        _assert_path_error(doc, path)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(doc=valid_docs(), data=st.data())
    def test_unknown_key_at_any_depth(self, doc, data):
        mappings = [("", doc)] + [(p, c[k]) for p, c, k in _nodes(doc) if isinstance(c[k], dict)]
        path, mapping = data.draw(st.sampled_from(mappings))
        mapping["zz_unknown"] = 1
        _assert_path_error(doc, f"{path}.zz_unknown" if path else "zz_unknown")

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(doc=valid_docs(), data=st.data())
    def test_missing_required_key(self, doc, data):
        required = [("", doc, key) for key in ("seed", "horizon", "runs", "problem", "policies")]
        required.append(("problem", doc["problem"], "generator"))
        required += [(f"policies[{i}]", p, "policy") for i, p in enumerate(doc["policies"])]
        path, mapping, key = data.draw(st.sampled_from(required))
        del mapping[key]
        _assert_path_error(doc, f"{path}.{key}" if path else key)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(doc=valid_docs(), data=st.data(), value=_FUZZ)
    def test_any_replacement_parses_or_names_a_path(self, doc, data, value):
        path, container, key = data.draw(st.sampled_from(list(_nodes(doc))))
        container[key] = value
        try:
            parse_experiment_dict(doc)
        except ConfigError as err:
            # the error lies in the replaced node or, for a changed policy or
            # generator name, beside it
            parent = path.rsplit(".", 1)[0] if "." in path else path.split("[", 1)[0]
            assert DOTTED_PATH.match(str(err)), str(err)
            assert str(err).startswith(parent), (path, str(err))

    def test_number_too_large_for_a_float(self):
        doc = minimal_doc(policies=[{"policy": "ucb", "c": 10**400}])
        _assert_path_error(doc, "policies[0].c: ")

    @pytest.mark.parametrize("doc", [None, 3, "seed: 1", [1, 2], 1.5])
    def test_non_mapping_document(self, doc):
        with pytest.raises(ConfigError, match=r"^<spec>: expected a mapping"):
            parse_experiment_dict(doc)
