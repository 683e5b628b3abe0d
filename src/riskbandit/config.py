"""Experiment spec parsing and resolution.

An experiment spec is a single YAML document::

    seed: 1234            # required, 64-bit unsigned
    horizon: 2000         # required
    runs: 40              # required, episodes per (policy, instance)
    instances: 1          # optional, problem instances (default 1)
    out: results          # optional output directory (default "results")
    format: csv           # optional, csv or json
    problem:
      generator: proof_of_concept   # or mixture, matrix, battery
      # generator parameters, see _GENERATOR_FIELDS
    policies:
      - policy: marab     # ucb, min, marab, mvlcb, expexp
        label: marab_a20  # optional, defaults to the policy name
        c: 0.001
        alpha: 0.2
        sweep:            # optional, used by the sweep command
          c: [1.0e-6, 1.0e-3, 1.0]

    # mvlcb accepts delta: auto (1 / horizon^2); expexp accepts tau: auto
    # (k * (horizon / 14)^(2/3)).  Output files are named by label (see
    # sanitize_label), so labels must stay unique once mapped to file
    # names: a/b and a_b clash.

Validation is strict: unknown keys anywhere are rejected, and error messages
name the offending field by its dotted path.  Policy parameters resolve in
two phases because ``tau: auto`` needs the arm count, which only exists once
the problem is built: :func:`parse_experiment_dict` checks structure, and
:func:`resolve_policy` materialises the policy config per problem.

Randomised generators draw instance ``i`` from the derived stream
``(seed, PROBLEM_DOMAIN, i)``; deterministic generators produce the same
problem for every instance (the episode seeds still differ per instance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import yaml

from .distributions import load_reward_matrix
from .exceptions import ConfigError
from .generators import (
    BanditProblem,
    gen_battery_synthetic,
    gen_from_matrix,
    gen_mixture,
    gen_proof_of_concept,
)
from .policies import POLICY_KINDS, PolicyConfig, check_fits, expexp_tau
from .rng import PROBLEM_DOMAIN, substream, validate_seed

_TOP_KEYS = {"seed", "horizon", "runs", "instances", "out", "format", "problem", "policies"}

# generator name -> {field: (type, required)}
_GENERATOR_FIELDS = {
    "proof_of_concept": {
        "k": (int, False),
        "mu_star": (float, False),
        "a_star": (float, False),
        "delta_max": (float, False),
        "r_max": (float, False),
    },
    "mixture": {"k": (int, False)},
    "matrix": {"path": (str, True), "rescale": (bool, False)},
    "battery": {"n_arms": (int, False), "n_realizations": (int, False)},
}

# policy kind -> {field: default}; _AUTO means "auto" is accepted
_AUTO = object()
_POLICY_FIELDS = {
    "ucb": {"c": 0.001},
    "min": {},
    "marab": {"c": 0.001, "alpha": 0.2},
    "mvlcb": {"rho": 1.0, "delta": _AUTO},
    "expexp": {"rho": 1.0, "tau": _AUTO},
}


@dataclass(eq=False)
class ProblemSpec:
    generator: str
    params: dict


@dataclass(eq=False)
class PolicyEntry:
    label: str
    kind: str
    params: dict
    sweep: Optional[dict] = None
    index: int = 0  # position in the spec's policy list, for error paths


@dataclass(eq=False)
class ExperimentSpec:
    seed: int
    horizon: int
    runs: int
    problem: ProblemSpec
    policies: list[PolicyEntry]
    instances: int = 1
    out: str = "results"
    format: str = "csv"


def sanitize_label(label: str) -> str:
    """The file-name stem of a policy label: characters other than letters,
    digits, ``-`` and ``_`` become ``_``."""
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in label)


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _need_mapping(doc: Any, path: str) -> dict:
    if not isinstance(doc, dict):
        _fail(path, f"expected a mapping, got {type(doc).__name__}")
    return doc


def _reject_unknown(doc: dict, allowed, path: str) -> None:
    for key in doc:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else str(key), "unknown key")


def _get_int(doc: dict, key: str, path: str, minimum: int, default=None) -> Any:
    if key not in doc:
        if default is not None:
            return default
        _fail(f"{path}{key}", "required")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}{key}", f"expected an integer, got {value!r}")
    if value < minimum:
        _fail(f"{path}{key}", f"must be >= {minimum}, got {value}")
    return value


def _coerce(value: Any, typ: type, path: str) -> Any:
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            _fail(path, f"{value} is too large for a float")
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, f"expected an integer, got {value!r}")
        return value
    if typ is bool:
        if not isinstance(value, bool):
            _fail(path, f"expected a boolean, got {value!r}")
        return value
    if typ is str:
        if not isinstance(value, str):
            _fail(path, f"expected a string, got {value!r}")
        return value
    raise AssertionError(typ)


def _parse_problem(doc: Any) -> ProblemSpec:
    doc = _need_mapping(doc, "problem")
    if "generator" not in doc:
        _fail("problem.generator", "required")
    name = doc["generator"]
    if not isinstance(name, str) or name not in _GENERATOR_FIELDS:
        _fail("problem.generator", f"unknown generator {name!r}; valid: {sorted(_GENERATOR_FIELDS)}")
    fields = _GENERATOR_FIELDS[name]
    _reject_unknown(doc, set(fields) | {"generator"}, "problem")
    params = {}
    for key, (typ, required) in fields.items():
        if key in doc:
            params[key] = _coerce(doc[key], typ, f"problem.{key}")
        elif required:
            _fail(f"problem.{key}", "required")
    return ProblemSpec(generator=name, params=params)


def _parse_policy(doc: Any, index: int) -> PolicyEntry:
    path = f"policies[{index}]"
    doc = _need_mapping(doc, path)
    if "policy" not in doc:
        _fail(f"{path}.policy", "required")
    kind = doc["policy"]
    if not isinstance(kind, str) or kind not in _POLICY_FIELDS:
        _fail(f"{path}.policy", f"unknown policy {kind!r}; valid: {sorted(_POLICY_FIELDS)}")
    fields = _POLICY_FIELDS[kind]
    _reject_unknown(doc, set(fields) | {"policy", "label", "sweep"}, path)

    params = {}
    for key, default in fields.items():
        if key in doc:
            value = doc[key]
            if value == "auto":
                if default is not _AUTO:
                    _fail(f"{path}.{key}", "does not support auto")
                params[key] = "auto"
            else:
                typ = int if key == "tau" else float
                params[key] = _coerce(value, typ, f"{path}.{key}")
        else:
            params[key] = "auto" if default is _AUTO else default

    sweep = None
    if "sweep" in doc:
        sweep_doc = _need_mapping(doc["sweep"], f"{path}.sweep")
        sweep = {}
        for key, values in sweep_doc.items():
            if key not in fields:
                _fail(f"{path}.sweep.{key}", f"not a parameter of policy {kind!r}")
            if not isinstance(values, list) or not values:
                _fail(f"{path}.sweep.{key}", "expected a non-empty list")
            typ = int if key == "tau" else float
            sweep[key] = [_coerce(v, typ, f"{path}.sweep.{key}[{i}]") for i, v in enumerate(values)]

    label = doc.get("label", kind)
    if not isinstance(label, str) or not label:
        _fail(f"{path}.label", f"expected a non-empty string, got {label!r}")
    return PolicyEntry(label=label, kind=kind, params=params, sweep=sweep, index=index)


def parse_experiment_dict(doc: Any, source: str = "<spec>") -> ExperimentSpec:
    """Validate a parsed YAML document into an :class:`ExperimentSpec`."""
    doc = _need_mapping(doc, source)
    _reject_unknown(doc, _TOP_KEYS, "")

    if "seed" not in doc:
        _fail("seed", "required")
    try:
        seed = validate_seed(doc["seed"])
    except ValueError as exc:
        raise ConfigError(f"seed: {exc}") from None

    horizon = _get_int(doc, "horizon", "", 1)
    runs = _get_int(doc, "runs", "", 1)
    instances = _get_int(doc, "instances", "", 1, default=1)

    out = doc.get("out", "results")
    if not isinstance(out, str) or not out:
        _fail("out", f"expected a non-empty string, got {out!r}")
    fmt = doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        _fail("format", f"expected csv or json, got {fmt!r}")

    if "problem" not in doc:
        _fail("problem", "required")
    problem = _parse_problem(doc["problem"])

    if "policies" not in doc:
        _fail("policies", "required")
    policies_doc = doc["policies"]
    if not isinstance(policies_doc, list) or not policies_doc:
        _fail("policies", "expected a non-empty list")
    policies = [_parse_policy(p, i) for i, p in enumerate(policies_doc)]
    # output files are named by label, so labels must differ once sanitized
    stems = {}
    for p in policies:
        stem = sanitize_label(p.label)
        if stems.get(stem) == p.label:
            _fail("policies", f"duplicate label {p.label!r}; set explicit labels")
        if stem in stems:
            _fail(
                "policies",
                f"labels {stems[stem]!r} and {p.label!r} both name files {stem!r}; "
                "set distinct labels",
            )
        stems[stem] = p.label

    return ExperimentSpec(
        seed=seed,
        horizon=horizon,
        runs=runs,
        instances=instances,
        out=out,
        format=fmt,
        problem=problem,
        policies=policies,
    )


def load_experiment_spec(path) -> ExperimentSpec:
    """Read and validate a YAML experiment spec."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read spec {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    return parse_experiment_dict(doc, source=str(path))


def build_problem(spec: ProblemSpec, seed: int, instance: int) -> BanditProblem:
    """Materialise problem ``instance`` of the experiment."""
    params = spec.params
    try:
        if spec.generator == "proof_of_concept":
            return gen_proof_of_concept(**params)
        if spec.generator == "mixture":
            rng = substream(seed, PROBLEM_DOMAIN, instance)
            return gen_mixture(params.get("k", 20), rng)
        if spec.generator == "matrix":
            try:
                rows = load_reward_matrix(params["path"])
            except OSError as exc:
                raise ConfigError(f"problem.path: cannot read {params['path']}: {exc}") from None
            return gen_from_matrix(rows, rescale=params.get("rescale", False))
        if spec.generator == "battery":
            rng = substream(seed, PROBLEM_DOMAIN, instance)
            rows = gen_battery_synthetic(
                params.get("n_arms", 20), params.get("n_realizations", 117), rng
            )
            return gen_from_matrix(rows)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from None
    raise AssertionError(spec.generator)


def resolve_policy(entry: PolicyEntry, k: int, horizon: int) -> PolicyConfig:
    """Materialise a policy config, resolving ``auto`` parameters for this problem,
    and check that it can play ``k`` arms for ``horizon`` rounds."""
    params = dict(entry.params)
    if params.get("delta") == "auto":
        params["delta"] = 1.0 / (horizon * horizon)
    if params.get("tau") == "auto":
        params["tau"] = min(horizon, expexp_tau(k, horizon))
    try:
        policy = POLICY_KINDS[entry.kind](**params)
        check_fits(policy, k, horizon)
        return policy
    except ValueError as exc:
        raise entry_error(entry, exc) from None


def entry_error(entry: PolicyEntry, exc: Exception) -> ConfigError:
    """``exc`` as a validation error that names the policy entry it came from."""
    return ConfigError(f"policies[{entry.index}]: policy {entry.label!r}: {exc}")


def resolved_config_dict(spec: ExperimentSpec) -> dict:
    """Plain-dict echo of the fully resolved experiment, for provenance output."""
    return {
        "seed": spec.seed,
        "horizon": spec.horizon,
        "runs": spec.runs,
        "instances": spec.instances,
        "out": spec.out,
        "format": spec.format,
        "problem": {"generator": spec.problem.generator, **spec.problem.params},
        "policies": [
            {
                "policy": p.kind,
                "label": p.label,
                **p.params,
                **({"sweep": p.sweep} if p.sweep else {}),
            }
            for p in spec.policies
        ],
    }
