import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskbandit import (
    BanditProblem,
    DegenerateMixtureError,
    EmpiricalResample,
    TruncatedGaussianMixture,
    UniformSegment,
    analytic_cvar,
    analytic_mean,
    essential_infimum,
    quantile_value,
    sample,
    sample_many,
)
from riskbandit.distributions import load_reward_matrix
from riskbandit.rng import make_rng


class TestUniformSegment:
    def test_closed_forms(self):
        seg = UniformSegment(center=0.5, radius=0.5)
        assert analytic_mean(seg) == 0.5
        assert essential_infimum(seg) == 0.0
        assert quantile_value(seg, 0.5) == 0.5
        assert quantile_value(seg, 0.1) == pytest.approx(0.1)
        assert analytic_cvar(seg, 1.0) == 0.5
        assert analytic_cvar(seg, 0.5) == 0.25

    def test_narrow_segment(self):
        seg = UniformSegment(center=0.5, radius=0.001)
        assert analytic_mean(seg) == 0.5
        assert essential_infimum(seg) == pytest.approx(0.499)

    def test_cvar_approaches_infimum(self):
        seg = UniformSegment(center=0.5, radius=0.1)
        assert analytic_cvar(seg, 1e-9) == pytest.approx(essential_infimum(seg), abs=1e-9)

    def test_support_containment(self):
        seg = UniformSegment(center=0.6, radius=0.3)
        draws = sample_many(seg, make_rng(1), 100_000)
        assert draws.min() >= seg.low
        assert draws.max() <= seg.high

    def test_validation(self):
        with pytest.raises(ValueError, match="radius"):
            UniformSegment(center=0.5, radius=0.0)
        with pytest.raises(ValueError, match="escapes"):
            UniformSegment(center=0.9, radius=0.2)
        with pytest.raises(ValueError, match="escapes"):
            UniformSegment(center=0.1, radius=0.2)

    @pytest.mark.parametrize(
        "center, radius", [(math.nan, 0.1), (0.5, math.nan), (0.5, math.inf), (math.inf, 0.1)]
    )
    def test_non_finite_parameters_rejected(self, center, radius):
        with pytest.raises(ValueError, match="must be finite"):
            UniformSegment(center=center, radius=radius)

    def test_tail_probability_linear_in_epsilon(self):
        # P(X <= a + eps) = eps / (2 radius) >= A * eps with A = 1/(2 radius)
        seg = UniformSegment(center=0.5, radius=0.25)
        draws = sample_many(seg, make_rng(7), 200_000)
        for eps in (0.05, 0.1, 0.2):
            frac = np.mean(draws <= seg.low + eps)
            assert frac == pytest.approx(eps / (2 * seg.radius), abs=0.01)


class TestEmpiricalResample:
    def test_exact_statistics(self):
        er = EmpiricalResample(values=(0.2, 0.4))
        assert analytic_mean(er) == pytest.approx(0.3)
        assert essential_infimum(er) == 0.2
        er3 = EmpiricalResample(values=(0.9, 0.1, 0.5))
        assert essential_infimum(er3) == 0.1

    def test_quantile_rank_convention(self):
        er = EmpiricalResample(values=(0.1, 0.2, 0.3, 0.4))
        assert quantile_value(er, 0.5) == 0.2
        assert quantile_value(er, 1.0) == 0.4
        assert quantile_value(er, 0.01) == 0.1

    def test_cvar(self):
        er = EmpiricalResample(values=(0.1, 0.5, 0.9))
        assert analytic_cvar(er, 1.0) == pytest.approx(0.5)
        assert analytic_cvar(er, 1e-6) == 0.1
        assert analytic_cvar(er, 0.4) == pytest.approx(0.3)

    def test_single_value_resample(self):
        er = EmpiricalResample(values=(0.3,))
        assert sample(er, make_rng(0)) == 0.3
        draws = sample_many(er, make_rng(1), 1000)
        assert np.all(draws == 0.3)

    def test_samples_are_members(self):
        er = EmpiricalResample(values=(0.1, 0.4, 0.8))
        draws = sample_many(er, make_rng(2), 5000)
        assert set(np.unique(draws)) <= {0.1, 0.4, 0.8}

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            EmpiricalResample(values=())
        with pytest.raises(ValueError, match="outside"):
            EmpiricalResample(values=(0.5, 1.2))


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _truncated_mixture_mean(mix):
    """Independent closed-form oracle via the truncated-normal mean formula."""
    num = 0.0
    den = 0.0
    for w, mu, sd in zip(mix.weights, mix.means, mix.stds):
        lo = (mix.floor - mu) / sd
        hi = (1.0 - mu) / sd
        mass = _cdf(hi) - _cdf(lo)
        comp_mean = mu + sd * (_phi(lo) - _phi(hi)) / mass
        num += w * mass * comp_mean
        den += w * mass
    return num / den


def _truncated_mixture_cdf(mix, x):
    """Independent distribution function of the mixture conditioned on [floor, 1]."""
    below = 0.0
    total = 0.0
    for w, mu, sd in zip(mix.weights, mix.means, mix.stds):
        lo = _cdf((mix.floor - mu) / sd)
        below += w * (_cdf((x - mu) / sd) - lo)
        total += w * (_cdf((1.0 - mu) / sd) - lo)
    return below / total


DEGENERATE_MIX = TruncatedGaussianMixture(floor=0.0, weights=(1.0,), means=(-500.0,), stds=(0.01,))
TWO_BUMP_MIX = TruncatedGaussianMixture(
    floor=0.01, weights=(0.5, 0.5), means=(0.3, 0.8), stds=(0.2, 0.15)
)

# mass(x) rounds to mass(1) for x just below 1, and the total mass of about
# 0.05 makes alpha * mass(1) underflow to 0 at the smallest positive alpha
LOW_BUMP_MIX = TruncatedGaussianMixture(floor=0.0, weights=(1.0,), means=(-0.2,), stds=(0.12,))
# TestTruncatedGaussianMixture.test_repeated_draws_pinned: four sample()
# calls then two 3-value rows, on make_rng(17)
PINNED_MIXTURE_DRAWS = [
    0.6448973855978433,
    0.8855189281582783,
    0.21043067465449833,
    0.13643566117449027,
    0.9638651304044616,
    0.7634998532091439,
    0.6799145674907324,
    0.07854282035703197,
    0.0189847657841459,
    0.021191392827105304,
]


def _whole_block_sample(mix, rng, n, block=8192):
    """Rejection sampling that draws every block in full: the component picks
    for the block, then its normals, keeping accepted draws in attempt order."""
    means, stds = np.asarray(mix.means), np.asarray(mix.stds)
    cum = np.cumsum(np.asarray(mix.weights))
    cum[-1] = 1.0
    out = []
    while len(out) < n:
        comp = np.searchsorted(cum, rng.random(block), side="right")
        draws = means[comp] + stds[comp] * rng.standard_normal(block)
        out.extend(draws[(draws >= mix.floor) & (draws <= 1.0)])
    return np.array(out[:n], dtype=np.float64)


def _advance_past_sample(mix, rng, n, block=8192, chunk=1024):
    """Advance ``rng`` as a mixture sample of ``n`` values does: every block
    begun draws its ``block`` uniforms, then its normals up to the end of the
    ``chunk`` of attempts in which the ``n``-th value is accepted."""
    probe = make_rng(0)
    probe.bit_generator.state = rng.bit_generator.state
    means, stds = np.asarray(mix.means), np.asarray(mix.stds)
    cum = np.cumsum(np.asarray(mix.weights))
    cum[-1] = 1.0
    filled = 0
    while True:
        comp = np.searchsorted(cum, probe.random(block), side="right")
        draws = means[comp] + stds[comp] * probe.standard_normal(block)
        hits = np.flatnonzero((draws >= mix.floor) & (draws <= 1.0))
        if n == 0 or filled + hits.size >= n:
            attempts = 0 if n == 0 else hits[n - filled - 1] + 1
            rng.random(block)
            rng.standard_normal(-(-attempts // chunk) * chunk)
            return
        filled += hits.size
        rng.random(block)
        rng.standard_normal(block)


class TestTruncatedGaussianMixture:
    def test_validation(self):
        with pytest.raises(ValueError, match="floor"):
            TruncatedGaussianMixture(floor=1.0, weights=(1.0,), means=(0.5,), stds=(0.2,))
        with pytest.raises(ValueError, match="length"):
            TruncatedGaussianMixture(floor=0.0, weights=(1.0,), means=(0.5, 0.6), stds=(0.2,))
        with pytest.raises(ValueError, match="sum to 1"):
            TruncatedGaussianMixture(floor=0.0, weights=(0.5, 0.4), means=(0.5, 0.6), stds=(0.2, 0.2))
        with pytest.raises(ValueError, match="positive"):
            TruncatedGaussianMixture(floor=0.0, weights=(1.0,), means=(0.5,), stds=(0.0,))
        with pytest.raises(ValueError, match="positive"):
            TruncatedGaussianMixture(
                floor=0.0, weights=(1.0, 0.0), means=(0.5, 0.6), stds=(0.2, 0.2)
            )
        with pytest.raises(ValueError, match="component"):
            TruncatedGaussianMixture(floor=0.0, weights=(), means=(), stds=())

    @pytest.mark.parametrize("field", ["weights", "means", "stds"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_components_rejected(self, field, bad):
        good = dict(floor=0.0, weights=(0.5, 0.5), means=(0.4, 0.6), stds=(0.2, 0.2))
        with pytest.raises(ValueError, match="must be finite"):
            TruncatedGaussianMixture(**{**good, field: (0.5, bad)})

    def test_support_containment(self):
        mix = TruncatedGaussianMixture(
            floor=0.03, weights=(0.7, 0.3), means=(0.2, 0.9), stds=(0.3, 0.15)
        )
        draws = sample_many(mix, make_rng(5), 100_000)
        assert draws.min() >= 0.03
        assert draws.max() <= 1.0
        assert essential_infimum(mix) == 0.03

    def test_symmetric_single_component_mean(self):
        # symmetric truncation about the mean keeps the mean at 0.5
        mix = TruncatedGaussianMixture(floor=0.0, weights=(1.0,), means=(0.5,), stds=(0.12,))
        assert analytic_mean(mix) == pytest.approx(_truncated_mixture_mean(mix), rel=1e-12)
        assert analytic_mean(mix) == pytest.approx(0.5, rel=1e-12)
        draws = sample_many(mix, make_rng(11), 1_000_000)
        assert draws.mean() == pytest.approx(0.5, abs=0.002)

    def test_mean_against_closed_form(self):
        for seed in range(3):
            rng = make_rng(seed)
            mix = TruncatedGaussianMixture(
                floor=float(rng.uniform(0, 0.05)),
                weights=(0.25, 0.75),
                means=(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))),
                stds=(float(rng.uniform(0.12, 0.5)), float(rng.uniform(0.12, 0.5))),
            )
            assert analytic_mean(mix) == pytest.approx(_truncated_mixture_mean(mix), rel=1e-12)

    def test_cvar_monotone_and_consistent(self):
        mix = TWO_BUMP_MIX
        alphas = [0.01, 0.05, 0.2, 0.5, 1.0]
        values = [analytic_cvar(mix, a) for a in alphas]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))
        assert values[-1] == pytest.approx(analytic_mean(mix), abs=1e-12)
        for a in alphas:
            assert analytic_cvar(mix, a) <= quantile_value(mix, a)
            assert analytic_cvar(mix, a) >= mix.floor

    def test_determinism(self):
        mix = TruncatedGaussianMixture(
            floor=0.02, weights=(0.4, 0.6), means=(0.4, 0.7), stds=(0.2, 0.3)
        )
        a = sample_many(mix, make_rng(9), 10_000)
        b = sample_many(mix, make_rng(9), 10_000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mix", [TWO_BUMP_MIX, LOW_BUMP_MIX])
    def test_cvar_at_one_is_mean_bit_for_bit(self, mix):
        assert quantile_value(mix, 1.0) == 1.0
        assert analytic_cvar(mix, 1.0) == analytic_mean(mix)

    @pytest.mark.parametrize("alpha", [1e-6, 0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0])
    def test_quantile_inverts_cdf(self, alpha):
        q = quantile_value(TWO_BUMP_MIX, alpha)
        assert TWO_BUMP_MIX.floor <= q <= 1.0
        assert _truncated_mixture_cdf(TWO_BUMP_MIX, q) == pytest.approx(alpha, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("mix", [TWO_BUMP_MIX, LOW_BUMP_MIX])
    @pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1e-12, 1e-9])
    def test_tiny_alpha_tail_mean_bounded(self, mix, alpha):
        q = quantile_value(mix, alpha)
        assert mix.floor <= analytic_cvar(mix, alpha) <= q
        assert q == pytest.approx(mix.floor, abs=1e-8)

    def test_cvar_against_sample(self):
        draws = np.sort(sample_many(TWO_BUMP_MIX, make_rng(3), 1_000_000))
        for alpha in (0.01, 0.05, 0.2, 0.5, 1.0):
            tail = draws[: math.ceil(alpha * draws.size)]
            assert analytic_cvar(TWO_BUMP_MIX, alpha) == pytest.approx(tail.mean(), abs=3e-3)

    def test_degenerate_mixture_raises(self):
        # essentially all mass far below the acceptance window
        with pytest.raises(DegenerateMixtureError):
            sample_many(DEGENERATE_MIX, make_rng(0), 10)

    def test_degenerate_mixture_statistics_raise(self):
        with pytest.raises(DegenerateMixtureError):
            analytic_mean(DEGENERATE_MIX)
        with pytest.raises(DegenerateMixtureError):
            BanditProblem.from_arms([TWO_BUMP_MIX, DEGENERATE_MIX])

    @pytest.mark.parametrize("mix", [TWO_BUMP_MIX, LOW_BUMP_MIX], ids=["two_bump", "low_bump"])
    @pytest.mark.parametrize("n", [0, 1, 500, 2000, 9000, 30_000])
    def test_rows_equal_whole_block_reference(self, mix, n):
        # LOW_BUMP_MIX accepts about 5% of attempts, so its rows span blocks
        # from 500 values on; TWO_BUMP_MIX's rows do from 9000 on
        for seed in range(3):
            want = _whole_block_sample(mix, make_rng(seed), n)
            assert np.array_equal(sample_many(mix, make_rng(seed), n), want)

    @pytest.mark.parametrize("mix", [TWO_BUMP_MIX, LOW_BUMP_MIX], ids=["two_bump", "low_bump"])
    @pytest.mark.parametrize("n", [1, 500, 2000, 9000])
    def test_generator_stops_at_the_filling_chunk(self, mix, n):
        # a later draw from the same generator starts where the chunk of
        # attempts that filled the row ends
        for seed in range(3):
            rng, model = make_rng(seed), make_rng(seed)
            sample_many(mix, rng, n)
            _advance_past_sample(mix, model, n)
            assert rng.bit_generator.state == model.bit_generator.state
            assert np.array_equal(sample_many(mix, rng, 700), sample_many(mix, model, 700))

    def test_repeated_draws_pinned(self):
        # the sequence of repeated single draws and of two rows on one
        # generator; it changes whenever the sampler's consumption does
        rng = make_rng(17)
        singles = [sample(TWO_BUMP_MIX, rng) for _ in range(4)]
        rows = [sample_many(TWO_BUMP_MIX, rng, 3), sample_many(LOW_BUMP_MIX, rng, 3)]
        got = singles + np.concatenate(rows).tolist()
        assert got == PINNED_MIXTURE_DRAWS

    def test_from_components(self):
        mix = TruncatedGaussianMixture.from_components(0.01, [(0.3, 0.4, 0.2), (0.7, 0.6, 0.3)])
        assert mix.weights == (0.3, 0.7)
        assert mix.means == (0.4, 0.6)
        assert mix.stds == (0.2, 0.3)


_unit_value = st.floats(0.0, 1.0)


@st.composite
def arm_specs(draw):
    """A random uniform segment, empirical list or truncated mixture."""
    family = draw(st.sampled_from(["uniform", "empirical", "mixture"]))
    if family == "uniform":
        center = draw(st.floats(0.01, 0.99))
        radius = draw(st.floats(0.001, min(center, 1.0 - center)))
        return UniformSegment(center=center, radius=radius)
    if family == "empirical":
        return EmpiricalResample(values=tuple(draw(st.lists(_unit_value, min_size=1, max_size=20))))
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    return TruncatedGaussianMixture(
        floor=draw(st.floats(0.0, 0.05)),
        weights=tuple(w / sum(raw) for w in raw),
        means=tuple(draw(st.lists(_unit_value, min_size=n, max_size=n))),
        stds=tuple(draw(st.lists(st.floats(0.12, 0.5), min_size=n, max_size=n))),
    )


class TestTailProperties:
    """CVaR properties over random specs of every family.

    Levels start at 1e-4: the mixture tail mean carries a rounding error of
    about 1e-17 / alpha, which stays below the 1e-12 slack used here.
    """

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(spec=arm_specs(), alphas=st.lists(st.floats(1e-4, 1.0), min_size=2, max_size=6))
    def test_cvar_monotone_and_bounded(self, spec, alphas):
        alphas = sorted(alphas) + [1.0]
        values = [analytic_cvar(spec, a) for a in alphas]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12
        for a, v in zip(alphas, values):
            assert essential_infimum(spec) - 1e-12 <= v <= quantile_value(spec, a) + 1e-12
        assert values[-1] == pytest.approx(analytic_mean(spec), rel=1e-12, abs=1e-15)


class TestAlphaValidation:
    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_out_of_range(self, alpha):
        seg = UniformSegment(center=0.5, radius=0.5)
        with pytest.raises(ValueError, match="alpha"):
            quantile_value(seg, alpha)
        with pytest.raises(ValueError, match="alpha"):
            analytic_cvar(seg, alpha)


class TestSampleDispatch:
    def test_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_many(UniformSegment(center=0.5, radius=0.5), make_rng(0), -1)

    def test_unknown_spec_type(self):
        with pytest.raises(TypeError):
            sample_many(object(), make_rng(0), 3)
        with pytest.raises(TypeError):
            analytic_mean(object())


class TestLoadRewardMatrix:
    def test_variable_row_lengths(self, tmp_path):
        path = tmp_path / "rewards.csv"
        path.write_text("0.1,0.2,0.3\n\n0.5,0.6\n")
        rows = load_reward_matrix(path)
        assert rows == [[0.1, 0.2, 0.3], [0.5, 0.6]]

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_reward_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("0.1,inf\n0.3,0.4\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_reward_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no reward rows"):
            load_reward_matrix(path)
