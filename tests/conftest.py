import numpy as np
import pytest

import riskbandit as rb


@pytest.fixture(scope="session")
def poc_problem():
    return rb.gen_proof_of_concept()


def random_stats(rng: np.random.Generator, max_size: int = 50) -> rb.ArmStats:
    """ArmStats over a random multiset of rewards in [0, 1]."""
    n = int(rng.integers(1, max_size + 1))
    return rb.ArmStats.from_rewards(rng.random(n))
