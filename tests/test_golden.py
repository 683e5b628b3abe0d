"""Byte-identity gate on the episode engine and the theory commands.

Every CSV that a small ``run`` spec (on proof-of-concept, mixture and
battery arms) and a small ``sweep`` spec write is pinned by its SHA-256.
Together they play all five policies, MaRaB from a one-sample tail
(alpha * horizon < 1) to nearly the whole history, and battery arms whose
few recorded values make rewards tie.  A second sweep lists ``c`` before
``alpha`` and interleaves two MIN-limit alphas with two buffered ones, so
its cells play out of grid order and must be written back in it.  A third
``run`` spec plays MaRaB in the MIN limit (alpha * horizon = 1) beside MIN,
and their tables' data rows must be equal.  Each
spec plays twice, under the default call budget and under one that puts
every instance and every sweep cell in a call of its own; the digests must
not move.  The stdout of ``bound`` (with and without UCB mean gaps) and of
``check-lemma`` (one arm and the union over three, at ``t = 0`` and
``t = 10``, two seeds) is pinned the same way.  A change that moves one output byte fails here; a deliberate output change
must update the digests and name itself as a correctness fix.
"""

import hashlib
import json

import pytest

import riskbandit.harness as harness
from riskbandit.cli import main

RUN_TEXT = """\
seed: 31
horizon: 80
runs: 3
instances: 2
problem: {problem}
policies:
  - {{policy: marab, c: 0.001, alpha: 0.3}}
  - {{policy: min}}
  - {{policy: ucb, c: 0.001}}
  - {{policy: mvlcb, rho: 1.0, delta: auto}}
  - {{policy: expexp, rho: 1.0, tau: auto}}
"""

PROBLEMS = {
    "proof_of_concept": "{generator: proof_of_concept, k: 5}",
    "mixture": "{generator: mixture, k: 5}",
    "battery": "{generator: battery, n_arms: 5, n_realizations: 7}",
}

SWEEP_TEXT = """\
seed: 32
horizon: 90
runs: 3
problem: {generator: battery, n_arms: 4, n_realizations: 9}
policies:
  - policy: marab
    sweep:
      alpha: [0.001, 0.1, 0.999]
      c: [0.0, 1.0]
  - policy: ucb
    sweep:
      c: [0.001, 1.0]
  - policy: mvlcb
    sweep:
      rho: [0.5, 2.0]
  - {policy: expexp, rho: 1.0, tau: 20}
  - {policy: min}
"""

REORDERED_SWEEP_TEXT = """\
seed: 33
horizon: 90
runs: 3
problem: {generator: mixture, k: 4}
policies:
  - policy: marab
    sweep:
      c: [0.0, 0.5, 2.0]
      alpha: [0.005, 0.2, 0.011, 0.9]
  - {policy: min}
"""

MIN_LIMIT_RUN_TEXT = """\
seed: 34
horizon: 80
runs: 3
instances: 2
problem: {generator: mixture, k: 4}
policies:
  - {policy: marab, c: 0.5, alpha: 0.0125}
  - {policy: min}
"""

RUN_DIGESTS = {
    "battery": {
        "regret_curve_expexp.csv": "df4ff20e76993ac9036f9ec24d86d87d6b58156aca7cf75a4825e3f407afd522",
        "regret_curve_marab.csv": "ddb847eeae709e1d0d6823439ea66f5d3d456f81913173a515742bd48de44a7d",
        "regret_curve_min.csv": "9fdb04c0a7a887a27a6ca019dd11f8f65b98911dfa44193ebcf531753532e907",
        "regret_curve_mvlcb.csv": "f58b0c98317bb5d34157d7418388e53c6a24e0a83cd0ccbe8852bbf111f2208e",
        "regret_curve_ucb.csv": "0f602fa443c9049280e562bcf999a2664651b61b43a0146b913bf7b89e72e7c7",
        "sorted_final_regret_expexp.csv": "6941a271ee7f56131f06d0a73623d722f18afb3a6b81f7cd7bb7eb68529b6dc6",
        "sorted_final_regret_marab.csv": "80c72f90c457c39f82b5b3a54f8ca35f0f4f7b3104340ec76b94a4ff2af4c423",
        "sorted_final_regret_min.csv": "09c335ae96a977f324808c649993c68d8d0748ee6eb54173ac2aeba0cbd77d63",
        "sorted_final_regret_mvlcb.csv": "32132176b1aac402b721e670513bd698d6f16f88ceb6e1f130ea1e11f4eec824",
        "sorted_final_regret_ucb.csv": "8121661b5fae0d6fd1d2b69b0f0ac5e42f2e1abab3fc203193d73b8d16892eb8",
        "sorted_rewards_expexp.csv": "579300d3c1ecef32359e147e915736a368eaea1df9fdad1f6a323f524cf61fa0",
        "sorted_rewards_marab.csv": "81dbfb4991541bb4058527fd520fdd3c09758700f1c216a97ad5b13da919d43b",
        "sorted_rewards_min.csv": "3503af1cb0c6d1b438d759912972b1d29268aaacd0ff7ea7c30e0c5cbaf45a51",
        "sorted_rewards_mvlcb.csv": "5e76696819b3e076a3009a49bfad644ad3ce75df82f7f51663b65eab058b4b4c",
        "sorted_rewards_ucb.csv": "4c0d788b61ea29ab4438b2dc59d464b4f65420bbe76aad3c3b8ec4a5e931dc83",
    },
    "mixture": {
        "regret_curve_expexp.csv": "4ac4028649a5ad8c102562906487260857d27b1765eb3cde57eb3aa69232ece0",
        "regret_curve_marab.csv": "9856781f89912f0cb2fdfd401a8c4540c504e88bcb9f474285ca324f064e8517",
        "regret_curve_min.csv": "b81b6de31c3e7f80e02dbf1ffa776dfc269af631df0fb19b465746e2275af5c4",
        "regret_curve_mvlcb.csv": "45befbd775990aaf73af417d5d2550835bcc0eab819b381e7a1d8e0e14c5fc05",
        "regret_curve_ucb.csv": "ec212860263931c229f1f68411d3fc4e3714b0faef625ebc286ba06fd5bd27b4",
        "sorted_final_regret_expexp.csv": "a47a5836ca5df0a81481b929d527f6232481066ff15094caec2df65e26a0cafa",
        "sorted_final_regret_marab.csv": "3b9456e900180b31ff3ea2d1ed6018b1511e27eb224e91fd28029808a645568e",
        "sorted_final_regret_min.csv": "8510c936b6811fab3e12a0748e411fb59b9812861136afa140035d516eaf0206",
        "sorted_final_regret_mvlcb.csv": "f3082523b3f3697e88078cf41ebc639c9b06aed9c026b0b571696db820b7e22e",
        "sorted_final_regret_ucb.csv": "c1a358fee4358fb05b26c139aeaef9f5e650d46b77ee0749de138004624ced26",
        "sorted_rewards_expexp.csv": "615d99588597a8a7d6166c1b994a7151bfd13c711111968cc014da0897eeb76e",
        "sorted_rewards_marab.csv": "ffa396b862f38280e081050e55693a6f84c13feb015e7a3667b985e1caacfa5c",
        "sorted_rewards_min.csv": "e8dad142cf099746490bfe55c1364d36849f069f28c585b12c8b19c0fcc2bd83",
        "sorted_rewards_mvlcb.csv": "092c88a316ef072b83d142588a89d90b947da9e45dc3b7dfccbe574a4bc64d03",
        "sorted_rewards_ucb.csv": "17c1d4b9691f23f8eba537ac6a65c58dae3ccde125dab32409028834be88f8aa",
    },
    "proof_of_concept": {
        "regret_curve_expexp.csv": "a62117d491b34e0e04c0a0ddb326bfd74bd162a3897d9347777acba93a1249e0",
        "regret_curve_marab.csv": "bb5d511355e879eedc1728961b06d7523aa5bb5dbb3b7743fb83c7d2ba2c4e40",
        "regret_curve_min.csv": "89f9ca18fbbb93b0c2735241bdea9599e084ae40e1a6157e2a93f8d810bc34f2",
        "regret_curve_mvlcb.csv": "45cef9018911b201841f86f59a183cbfd284c2e181965d921c46c116bedab295",
        "regret_curve_ucb.csv": "de36797e56a109a4aa0d30b49f03f446471caa5719252bc9ed05603d48b70e80",
        "sorted_final_regret_expexp.csv": "ed29853ffd26e7ec8abc978f4442ad014a5a97e204b4489e3ee1d5015665bb4b",
        "sorted_final_regret_marab.csv": "d690681294a7b9ee35e77bad13e6fabc81b67eef82445e03746cbe9af16b52d0",
        "sorted_final_regret_min.csv": "74b54c0b6282e85bb2a663b9b5a0820e9d9112885d2c30e36e388ee90afea6a2",
        "sorted_final_regret_mvlcb.csv": "b91b42c4968fefbcc3fddb8f25dc109661d99e36c4971c53e451ac9a50e3f24c",
        "sorted_final_regret_ucb.csv": "f1c35493eb1e334d5211ce1d7a85bff4a7322281ea2146d8fa6769bed6a5936d",
        "sorted_rewards_expexp.csv": "196be1dcb1ba9a7dbe82cc14ba730998de299b744da5a58e4425c8b43c89183b",
        "sorted_rewards_marab.csv": "bd84c9004343011ac5a51450fa458ffef5509057f762d8cd913ea0c123cba818",
        "sorted_rewards_min.csv": "9a8d593a5f16cf791a49f997cdfede038295773e08a628c1faafb46e49e48913",
        "sorted_rewards_mvlcb.csv": "f8ccfa061af57ade389350b8e76bd3e0e5aa5faf62b7a99574cd821b7f468a4a",
        "sorted_rewards_ucb.csv": "505e9391b3ae009f9cba5e0b74fab793a2fb849c2d3db863d2abb62b09c9dc03",
    },
}

SWEEP_DIGESTS = {
    "sweep_expexp.csv": "1bcd101511754ba9c7510856c10958d58deea3c405d1af898e7b41f27c66d83b",
    "sweep_marab.csv": "f70c1130791f5ca2896d7c2638b506202493665dfd489be7da1f3d9b3cf30a14",
    "sweep_min.csv": "93bf33b601bbf654921898c78b2ecec7c30a5308dbb1166a55575d6fedc55987",
    "sweep_mvlcb.csv": "df57a515716356194740f2e84f1a4478c83663f78931a4a099ffa30a03c5da40",
    "sweep_ucb.csv": "dcf01d411a93daf4111944a90eec44082afdec260c41282c9f2b9549c6750c1c",
}

# MaRaB in the MIN limit writes MIN's tables: the config line names both
MIN_LIMIT_RUN_DIGESTS = {
    f"{stem}_{label}.csv": digest
    for stem, digest in [
        ("regret_curve", "a1910c0d65e472ef18f3fad182c18939652ad02550862edd661bdc6a56a91988"),
        ("sorted_final_regret", "87c75b31d16dd837c25b4269fce3f10031c1d6f4dd8630319de491df6a8604d0"),
        ("sorted_rewards", "fbb421871b45714d30692056ab8276644cb5e78c0e6ae6b0319d4b79656c5a48"),
    ]
    for label in ("marab", "min")
}

REORDERED_SWEEP_DIGESTS = {
    "sweep_marab.csv": "1b78bae313451983d0841925fc99df79509b1a5122bd87faa8d8223ffd400658",
    "sweep_min.csv": "21880295767d90fbad6ec10b824ba58e7c21089b1ce665f6250e8378b2ef63f9",
}


def csv_digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))}


def data_rows(path):
    """The lines of a CSV table after its ``#`` comment preamble."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


# the default call budget, and one so small that every kernel call holds one
# instance or one sweep cell: the plan never moves a byte
BUDGETS = {"default": harness.STACK_FLOATS, "one_per_call": 1}


def digests_per_budget(command, text, tmp_path, monkeypatch):
    """Every CSV digest ``command`` writes for spec ``text``, under each budget."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(text)
    digests = {}
    for name, budget in BUDGETS.items():
        monkeypatch.setattr(harness, "STACK_FLOATS", budget)
        out = tmp_path / name
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 0
        digests[name] = csv_digests(out)
    return digests


@pytest.mark.parametrize("generator", sorted(PROBLEMS))
def test_run_outputs_byte_identical(generator, tmp_path, monkeypatch):
    digests = digests_per_budget("run", RUN_TEXT.format(problem=PROBLEMS[generator]), tmp_path, monkeypatch)
    assert digests == dict.fromkeys(BUDGETS, RUN_DIGESTS[generator])


def test_min_limit_run_outputs_byte_identical(tmp_path, monkeypatch):
    digests = digests_per_budget("run", MIN_LIMIT_RUN_TEXT, tmp_path, monkeypatch)
    assert digests == dict.fromkeys(BUDGETS, MIN_LIMIT_RUN_DIGESTS)
    for name in BUDGETS:
        marab, min_ = (data_rows(tmp_path / name / f"regret_curve_{label}.csv") for label in ("marab", "min"))
        # the header and one row per round
        assert len(marab) == 81 and marab == min_


def test_sweep_outputs_byte_identical(tmp_path, monkeypatch):
    digests = digests_per_budget("sweep", SWEEP_TEXT, tmp_path, monkeypatch)
    assert digests == dict.fromkeys(BUDGETS, SWEEP_DIGESTS)


def test_reordered_sweep_outputs_byte_identical(tmp_path, monkeypatch):
    digests = digests_per_budget("sweep", REORDERED_SWEEP_TEXT, tmp_path, monkeypatch)
    assert digests == dict.fromkeys(BUDGETS, REORDERED_SWEEP_DIGESTS)


BOUND_INPUTS = {
    "n_arms": 2,
    "density_floor": 1.0,
    "max_mean_gap": 0.1,
    "min_infimum_gap": 0.1,
    "t": 100,
    "delta": 0.05,
}

BOUND_DIGESTS = {
    "plain": "21fe9aec2d3b7916861ba1bd0266cc6c77c7abedb8008b6814e2e78b851c88f2",
    "mean_gaps": "1f2cc6608b49d95fb5035e74668b52075efc797edd84e16baaf3287409569d3a",
}

# (arms, t, seed) -> digest of check-lemma stdout; center 0.5, radius 0.5,
# epsilon 0.1, 300 trials
LEMMA_DIGESTS = {
    (1, 0, 0): "e8680667c31c1a4f19366a5e5c93dd783e6382f8488c08d1e2e73200639e2b2c",
    (1, 0, 7): "791c49a426a40dc9eff00e53c6abb5fb7a6be3317a65566227f0ec2d9d62af66",
    (1, 10, 0): "f63d776daf3b89fd19c932f4f1e01bb440eff8496f4b66e50d943461f6ab2540",
    (1, 10, 7): "3220c3728d7239986e553ee04403c528ee55cba201b7b8e77c441bbd68986de3",
    (3, 0, 0): "ee35f1486ff20793b41f73a2b8ba4f0da2d5198cd135d06be649ce0b741f8298",
    (3, 0, 7): "0a267e2f0022fc1371621d38c637b7bedd8ea7ef7df8eb93f7fa700e43c82d93",
    (3, 10, 0): "11b35b44cc41b088657bb2a85379addc63916d9ada3215c2d3780e4ef6af9c9d",
    (3, 10, 7): "7664d7511a56bfcbd8c7f0a6a9b637f8c72b37c648917363639bd9518995d565",
}


def stdout_digest(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BOUND_DIGESTS))
def test_bound_output_byte_identical(name, tmp_path, capsys):
    doc = dict(BOUND_INPUTS, **({"mean_gaps": [0.5]} if name == "mean_gaps" else {}))
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(doc))
    assert stdout_digest(["bound", "--inputs", str(path)], capsys) == BOUND_DIGESTS[name]


@pytest.mark.parametrize("arms, t, seed", sorted(LEMMA_DIGESTS))
def test_check_lemma_output_byte_identical(arms, t, seed, capsys):
    argv = [
        "check-lemma", "--center", "0.5", "--radius", "0.5", "--arms", str(arms),
        "--t", str(t), "--epsilon", "0.1", "--trials", "300", "--seed", str(seed),
    ]
    assert stdout_digest(argv, capsys) == LEMMA_DIGESTS[(arms, t, seed)]
