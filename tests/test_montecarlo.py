"""Branching-process retention trials and the dimension prediction."""

import math

import pytest

import fraczeta.montecarlo as montecarlo_module
from fraczeta.errors import CapacityError, InputError, SubcriticalRetentionWarning
from fraczeta.grids import build_stage, make_pess_spec
from fraczeta.limits import MAX_BINOMIAL_COUNT, MAX_TRIAL_LEVELS
from fraczeta.montecarlo import (
    RetentionConfig,
    expected_dimension,
    predicted_dimension,
    run_trials,
)


class TestExpectedDimension:
    def test_full_retention_gives_half(self):
        assert expected_dimension(1.0) == 0.5

    def test_three_quarters(self):
        assert expected_dimension(0.75) == pytest.approx(
            math.log(1.5) / math.log(4), abs=1e-15
        )

    def test_critical_point_warns_and_returns_zero(self):
        with pytest.warns(SubcriticalRetentionWarning):
            assert expected_dimension(0.5) == 0.0

    def test_subcritical_warns_with_value(self):
        with pytest.warns(SubcriticalRetentionWarning) as record:
            value = expected_dimension(0.3)
        assert value < 0
        assert record[0].message.value == value

    def test_validation(self):
        with pytest.raises(InputError):
            expected_dimension(0.0)
        with pytest.raises(InputError):
            expected_dimension(1.5)

    def test_bias_prediction_reduces_to_uniform(self):
        assert predicted_dimension((0.75, 0.75), 4) == expected_dimension(0.75)


class TestRunTrials:
    def test_deterministic_under_same_config(self):
        config = RetentionConfig.uniform(0.8, 10, 50, seed=4242)
        assert run_trials(config).outcomes == run_trials(config).outcomes

    def test_full_retention_is_exact(self):
        run = run_trials(RetentionConfig.uniform(1.0, 10, 20, seed=1))
        for outcome in run.outcomes:
            assert outcome.survivor_counts == tuple(2**k for k in range(11))
            assert outcome.dim_estimate == 0.5
            assert not outcome.extinct
        assert run.aggregate.extinction_rate == 0.0
        assert run.aggregate.mean_dim == 0.5

    def test_full_retention_matches_stage_counts(self):
        run = run_trials(RetentionConfig.uniform(1.0, 8, 3, seed=9))
        spec = make_pess_spec()
        expected = tuple(build_stage(spec, k).interval_count for k in range(9))
        assert run.outcomes[0].survivor_counts == expected

    def test_supercritical_mean_near_prediction(self):
        run = run_trials(RetentionConfig.uniform(0.75, 12, 500, seed=20260810))
        predicted = math.log(1.5) / math.log(4)
        assert run.aggregate.mean_dim == pytest.approx(predicted, abs=0.03)

    def test_subcritical_mostly_extinct(self):
        run = run_trials(RetentionConfig.uniform(0.3, 12, 300, seed=77))
        assert run.aggregate.extinction_rate > 0.9

    def test_bias_pair_near_generalized_prediction(self):
        config = RetentionConfig(
            probs=(0.95, 1.0), depth=12, trials=500, seed=515
        )
        run = run_trials(config)
        predicted = math.log(1.95) / math.log(4)
        assert run.aggregate.predicted_dim == pytest.approx(predicted, abs=1e-12)
        assert run.aggregate.mean_dim == pytest.approx(predicted, abs=0.03)

    def test_estimator_never_exceeds_structural_bound(self):
        for seed in (1, 2, 3):
            run = run_trials(RetentionConfig.uniform(0.9, 10, 100, seed=seed))
            for outcome in run.outcomes:
                if outcome.dim_estimate is not None:
                    assert outcome.dim_estimate <= 0.5 + 1e-12

    def test_mean_dim_monotone_in_p(self):
        means = []
        for p in (0.6, 0.75, 0.9, 1.0):
            run = run_trials(RetentionConfig.uniform(p, 12, 500, seed=99))
            means.append(run.aggregate.mean_dim)
        assert means == sorted(means)

    def test_counts_never_more_than_double(self):
        run = run_trials(RetentionConfig.uniform(0.8, 10, 50, seed=5))
        for outcome in run.outcomes:
            for a, b in zip(outcome.survivor_counts, outcome.survivor_counts[1:]):
                assert b <= 2 * a
            assert outcome.survivor_counts[0] == 1
            assert outcome.extinct == (outcome.survivor_counts[-1] == 0)

    def test_all_extinct_aggregate(self):
        run = run_trials(RetentionConfig.uniform(0.05, 8, 20, seed=3))
        if run.aggregate.extinction_rate == 1.0:
            assert run.aggregate.mean_dim is None
            assert run.aggregate.std_dim is None

    def test_config_validation(self):
        with pytest.raises(InputError):
            RetentionConfig.uniform(1.2, 5, 5, seed=1)
        with pytest.raises(InputError):
            RetentionConfig.uniform(0.5, 0, 5, seed=1)
        with pytest.raises(InputError):
            RetentionConfig.uniform(0.5, 5, 0, seed=1)
        with pytest.raises(InputError):
            RetentionConfig.uniform(0.5, 5, 5, seed=-1)

    @pytest.mark.parametrize("field,value", [("depth", 2.5), ("trials", 2.0), ("seed", 1.5), ("base", 4.0)])
    def test_a_non_integer_field_is_refused(self, field, value):
        values = {"depth": 2, "trials": 2, "seed": 1, "base": 4, field: value}
        with pytest.raises(InputError, match=rf"^{field} must be an integer, got {value}$"):
            run_trials(RetentionConfig(probs=(0.75, 0.75), **values))

    def test_trial_levels_are_capped(self, monkeypatch):
        assert 500 * 12 * 100 < MAX_TRIAL_LEVELS  # far above the quick tour's run
        with pytest.raises(CapacityError, match=str(MAX_TRIAL_LEVELS)):
            run_trials(RetentionConfig.uniform(0.75, 30, MAX_TRIAL_LEVELS // 30 + 1, seed=1))
        monkeypatch.setattr(montecarlo_module, "MAX_TRIAL_LEVELS", 60)
        assert len(run_trials(RetentionConfig.uniform(0.75, 12, 5, seed=1)).outcomes) == 5
        with pytest.raises(CapacityError, match="61 levels"):
            run_trials(RetentionConfig.uniform(0.75, 1, 61, seed=1))
        # a product with more digits than Python prints is shown as its digit count
        with pytest.raises(CapacityError, match="are a 4401-digit number levels"):
            run_trials(RetentionConfig.uniform(0.5, 10**2200, 10**2200, seed=1))

    def test_survivor_counts_are_capped_at_the_binomial_limit(self):
        # full retention doubles every level: 2^63 survivors after level 63
        run = run_trials(RetentionConfig.uniform(1.0, 63, 1, seed=1))
        assert run.outcomes[0].survivor_counts[-1] == 2**63 > MAX_BINOMIAL_COUNT
        with pytest.raises(CapacityError, match=f"{2**63} survivors at level 63"):
            run_trials(RetentionConfig.uniform(1.0, 64, 1, seed=1))
