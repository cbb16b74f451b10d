"""Tests for resilience metrics (mismatch, ΔLoss, SDC classification)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import metrics as M


@pytest.fixture
def golden():
    logits = np.array([[3.0, 1.0, 0.0], [0.0, 4.0, 1.0], [1.0, 0.0, 2.0]])
    labels = np.array([0, 1, 0])  # last sample is misclassified even clean
    return logits, labels


class TestSoftmaxAndCE:
    def test_softmax_rows_sum_to_one(self, rng):
        probs = M.softmax_probs(rng.standard_normal((5, 7)))
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(5), rtol=1e-12)

    def test_softmax_stability_with_large_logits(self):
        probs = M.softmax_probs(np.array([[1e4, 0.0]]))
        assert np.isfinite(probs).all()

    def test_cross_entropy_uniform(self):
        ce = M.cross_entropy_values(np.zeros((2, 4)), np.array([0, 3]))
        np.testing.assert_allclose(ce, np.log(4), rtol=1e-12)

    def test_cross_entropy_handles_nan_logits(self):
        ce = M.cross_entropy_values(np.array([[np.nan, 1.0]]), np.array([0]))
        assert np.isfinite(ce).all()
        assert ce[0] > 10  # pessimistic, not silently ignored

    def test_cross_entropy_handles_inf_logits(self):
        ce = M.cross_entropy_values(np.array([[np.inf, 1.0]]), np.array([1]))
        assert np.isfinite(ce).all()


class TestMismatch:
    def test_zero_when_identical(self, golden):
        logits, _ = golden
        assert M.mismatch_count(logits, logits) == 0
        assert M.mismatch_rate(logits, logits) == 0.0

    def test_counts_changed_predictions(self, golden):
        logits, _ = golden
        faulty = logits.copy()
        faulty[0] = [0.0, 9.0, 0.0]  # argmax 0 -> 1
        assert M.mismatch_count(logits, faulty) == 1
        assert M.mismatch_rate(logits, faulty) == pytest.approx(1 / 3)

    def test_nan_logits_count_as_changed_or_not_crash(self, golden):
        logits, _ = golden
        faulty = logits.copy()
        faulty[0, 0] = np.nan
        M.mismatch_count(logits, faulty)  # must not raise

    def test_shape_mismatch_raises(self, golden):
        logits, _ = golden
        with pytest.raises(ValueError, match="shapes"):
            M.mismatch_count(logits, logits[:2])

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="empty"):
            M.mismatch_rate(np.zeros((0, 3)), np.zeros((0, 3)))


class TestDeltaLoss:
    def test_zero_for_identical_runs(self, golden):
        logits, labels = golden
        assert M.delta_loss(logits, logits, labels) == 0.0

    def test_positive_for_any_perturbation(self, golden):
        logits, labels = golden
        faulty = logits + 0.5
        faulty[:, 0] -= 1.0
        assert M.delta_loss(logits, faulty, labels) > 0

    def test_uses_absolute_difference(self, golden):
        # a fault that *improves* the loss still counts (|Δ|, not Δ)
        logits, labels = golden
        better = logits.copy()
        better[2] = [9.0, 0.0, 0.0]  # fixes the misclassified sample
        assert M.delta_loss(logits, better, labels) > 0

    def test_delta_loss_is_continuous_mismatch_is_binary(self, golden):
        # the paper's argument for ΔLoss: sensitivity below the decision flip
        logits, labels = golden
        slightly = logits.copy()
        slightly[0, 1] += 0.5  # not enough to flip argmax
        assert M.mismatch_count(logits, slightly) == 0
        assert M.delta_loss(logits, slightly, labels) > 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        golden = rng.standard_normal((4, 5))
        faulty = golden + rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, size=4)
        assert M.delta_loss(golden, faulty, labels) >= 0


class TestSdcClassification:
    def test_all_masked_when_identical(self, golden):
        logits, labels = golden
        counts = M.sdc_classify(logits, logits, labels)
        assert counts == {"masked": 3, "sdc": 0, "benign_flip": 0}

    def test_sdc_detected(self, golden):
        logits, labels = golden
        faulty = logits.copy()
        faulty[0] = [0.0, 9.0, 0.0]  # correct 0 -> wrong 1
        counts = M.sdc_classify(logits, faulty, labels)
        assert counts["sdc"] == 1

    def test_benign_flip_detected(self, golden):
        logits, labels = golden
        faulty = logits.copy()
        faulty[2] = [9.0, 0.0, 0.0]  # wrong 2 -> correct 0
        counts = M.sdc_classify(logits, faulty, labels)
        assert counts["benign_flip"] == 1
        assert counts["sdc"] == 0

    def test_counts_partition_batch(self, golden, rng):
        logits, labels = golden
        faulty = logits + rng.standard_normal(logits.shape) * 3
        counts = M.sdc_classify(logits, faulty, labels)
        assert sum(counts.values()) == len(labels)


class TestOutcomes:
    def test_accuracy_and_mean_loss(self, golden):
        logits, labels = golden
        outcome = M.InferenceOutcome(logits=logits, labels=labels)
        assert outcome.accuracy == pytest.approx(2 / 3)
        assert outcome.mean_loss > 0

    def test_accuracy_with_nan_logits(self):
        outcome = M.InferenceOutcome(
            logits=np.array([[np.nan, 1.0]]), labels=np.array([1]))
        assert outcome.accuracy == 1.0  # nan treated as -inf

    def test_compare_outcomes_keys_and_consistency(self, golden, rng):
        logits, labels = golden
        g = M.InferenceOutcome(logits=logits, labels=labels)
        f = M.InferenceOutcome(logits=logits + rng.standard_normal(logits.shape),
                               labels=labels)
        result = M.compare_outcomes(g, f)
        assert set(result) == {"mismatches", "mismatch_rate", "delta_loss",
                               "sdc_rate", "faulty_accuracy", "golden_accuracy"}
        assert result["mismatch_rate"] == result["mismatches"] / 3
        assert result["golden_accuracy"] == pytest.approx(2 / 3)

    def test_compare_outcomes_equals_uncached_metrics(self):
        """The cached golden terms give exactly the per-call metrics, on
        all-finite faulty logits (what most injections produce) and on
        all-NaN rows, +/-inf logits and label-0 rows, in float64 and
        float32."""
        rng = np.random.default_rng(21)
        finite_trials = 0
        for trial in range(120):
            dtype = np.float64 if trial < 60 else np.float32
            logits = (rng.standard_normal((5, 4)) * 10).astype(dtype)
            if trial % 3 == 0:
                logits[0] = np.nan  # golden NaN row: raw argmax picks it
            labels = np.zeros(5, dtype=np.int64) if trial % 2 else \
                rng.integers(0, 4, size=5)
            golden = M.InferenceOutcome(logits=logits, labels=labels)
            for k in range(4):
                faulty = (logits + rng.standard_normal(logits.shape) * 5
                          ).astype(dtype)
                if k:
                    faulty[rng.integers(5)] = np.nan
                    faulty[rng.integers(5), rng.integers(4)] = rng.choice(
                        [np.inf, -np.inf, np.nan])
                finite_trials += bool(np.isfinite(faulty).all())
                result = M.compare_outcomes(
                    golden, M.InferenceOutcome(logits=faulty, labels=labels))
                counts = M.sdc_classify(logits, faulty, labels)
                mismatches = counts["sdc"] + counts["benign_flip"]
                assert result["mismatches"] == float(mismatches)
                assert result["mismatch_rate"] == mismatches / 5
                assert result["sdc_rate"] == counts["sdc"] / 5
                assert result["delta_loss"] == M.delta_loss(logits, faulty,
                                                            labels)
                assert mismatches == M.mismatch_count(logits, faulty)
                fresh = M.InferenceOutcome(logits=faulty, labels=labels)
                assert result["faulty_accuracy"] == fresh.accuracy
        assert finite_trials == 80

    def test_golden_terms_are_computed_once(self, golden, monkeypatch):
        logits, labels = golden
        g = M.InferenceOutcome(logits=logits, labels=labels)
        calls = []
        real = M.cross_entropy_values
        monkeypatch.setattr(M, "cross_entropy_values",
                            lambda *a: calls.append(1) or real(*a))
        for _ in range(4):
            M.compare_outcomes(g, M.InferenceOutcome(logits=logits + 1.0,
                                                     labels=labels))
        assert len(calls) == 1 + 4  # golden once, faulty once per compare


class TestDegenerateLogits:
    """Edge cases an injection campaign actually produces: a corrupted layer
    can turn a whole logits row into NaN or drive single entries to +inf."""

    def test_all_nan_row_does_not_poison_batch_loss(self):
        logits = np.array([[np.nan, np.nan, np.nan], [2.0, 0.0, 1.0]])
        labels = np.array([0, 0])
        ce = M.cross_entropy_values(logits, labels)
        assert np.isfinite(ce[1])  # healthy row unaffected
        outcome = M.InferenceOutcome(logits=logits, labels=labels)
        assert np.isfinite(outcome.accuracy)
        assert 0.0 <= outcome.accuracy <= 1.0

    def test_all_nan_row_counts_as_mismatch(self):
        golden = np.array([[2.0, 0.0], [0.0, 2.0]])
        faulty = golden.copy()
        faulty[0] = np.nan
        assert M.mismatch_count(golden, faulty) >= 1
        rate = M.mismatch_rate(golden, faulty)
        assert np.isfinite(rate) and 0.0 < rate <= 1.0

    def test_plus_inf_logit_saturates_not_crashes(self):
        logits = np.array([[np.inf, 0.0, 1.0]])
        probs = M.softmax_probs(logits)
        assert np.isfinite(probs[0, 1]) and np.isfinite(probs[0, 2])
        ce = M.cross_entropy_values(logits, np.array([0]))
        # predicting the label with certainty: loss must not be NaN
        assert not np.isnan(ce[0])

    def test_plus_inf_in_delta_loss_is_finite_or_inf_not_nan(self):
        golden = np.array([[2.0, 0.0]])
        faulty = np.array([[np.inf, 0.0]])
        dl = M.delta_loss(golden, faulty, np.array([1]))
        assert not np.isnan(dl)

    def test_sdc_classify_with_nan_row_still_partitions(self):
        golden = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
        faulty = golden.copy()
        faulty[0] = np.nan
        labels = np.array([0, 1, 0])
        counts = M.sdc_classify(golden, faulty, labels)
        assert sum(counts.values()) == 3
