"""Tests for the per-layer mixed-precision assignment extension."""

import numpy as np
import pytest

from repro.analysis import (
    LayerSensitivity,
    assign_mixed_precision,
    profile_layer_sensitivity,
)
from repro.models import simple_cnn


@pytest.fixture
def model():
    return simple_cnn(num_classes=4, image_size=8, seed=0)


@pytest.fixture
def data(rng):
    return (rng.standard_normal((24, 3, 8, 8)).astype(np.float32),
            rng.integers(0, 4, size=24))


class TestSensitivityProfile:
    def test_profiles_every_target_layer(self, model, data):
        sens = profile_layer_sensitivity(model, *data, candidate="fp_e2m2")
        assert [s.layer for s in sens] == ["conv1", "conv2", "fc"]
        assert all(0.0 <= s.accuracy <= 1.0 for s in sens)
        assert all(s.format_name == "fp_e2m2" for s in sens)

    def test_model_unchanged_after_profiling(self, model, data):
        before = model.conv1.weight.data.copy()
        profile_layer_sensitivity(model, *data, candidate="int4")
        np.testing.assert_array_equal(model.conv1.weight.data, before)


class TestAssignment:
    def test_assignment_covers_all_layers(self, model, data):
        result = assign_mixed_precision(model, *data, cheap="fp_e4m3",
                                        expensive="fp16", threshold=0.5)
        assert set(result.assignment) == {"conv1", "conv2", "fc"}
        assert set(result.assignment.values()) <= {"fp_e4m3", "fp16"}

    def test_loose_threshold_downgrades_everything(self, model, data):
        result = assign_mixed_precision(model, *data, cheap="fp_e4m3",
                                        expensive="fp16", threshold=0.99)
        assert all(spec == "fp_e4m3" for spec in result.assignment.values())
        assert result.mean_bits == 8.0

    def test_accuracy_respects_threshold_when_feasible(self, trained_model, val_data):
        images, labels = val_data
        result = assign_mixed_precision(trained_model, images[:64], labels[:64],
                                        cheap="fp_e4m3", expensive="fp16",
                                        threshold=0.05)
        assert result.accuracy >= result.baseline_accuracy - 0.05

    def test_trained_model_gets_cheap_layers(self, trained_model, val_data):
        # a well-trained model tolerates fp8 in most layers
        images, labels = val_data
        result = assign_mixed_precision(trained_model, images[:64], labels[:64],
                                        cheap="fp_e4m3", expensive="fp16",
                                        threshold=0.05)
        cheap_count = sum(1 for s in result.assignment.values() if s == "fp_e4m3")
        assert cheap_count >= 1
        assert result.mean_bits < 16.0

    def test_invalid_threshold(self, model, data):
        with pytest.raises(ValueError, match="threshold"):
            assign_mixed_precision(model, *data, threshold=0.0)

    def test_column_labels_are_rejected(self, model, data):
        images, labels = data
        with pytest.raises(ValueError, match="one label per image"):
            assign_mixed_precision(model, images, labels[:, None])

    def test_table_renders(self, model, data):
        result = assign_mixed_precision(model, *data, threshold=0.9)
        text = result.table()
        assert "mixed-precision" in text and "conv1" in text

    def test_sensitivities_recorded(self, model, data):
        result = assign_mixed_precision(model, *data, threshold=0.9)
        assert len(result.sensitivities) == 3
        assert all(isinstance(s, LayerSensitivity) for s in result.sensitivities)
