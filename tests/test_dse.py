"""Tests for the binary-tree DSE heuristic (use case 2, Fig. 5/6)."""

import numpy as np
import pytest

from repro.core import binary_tree_search, default_exp_bits, evaluate_format_accuracy
from repro.core.dse import FAMILY_BUILDERS, _radix_range
from repro.formats import AdaptivFloat, BlockFloatingPoint, FixedPoint, FloatingPoint, IntegerQuant
from repro.models import simple_cnn


@pytest.fixture
def model():
    return simple_cnn(num_classes=4, image_size=8, seed=0)


@pytest.fixture
def data(rng):
    return (rng.standard_normal((16, 3, 8, 8)).astype(np.float32),
            rng.integers(0, 4, size=16))


class TestBuilders:
    def test_fp_builder_splits_bits(self):
        fmt = FAMILY_BUILDERS["fp"](16, None)
        assert isinstance(fmt, FloatingPoint)
        assert fmt.exp_bits + fmt.mantissa_bits + 1 == 16
        assert fmt.exp_bits == default_exp_bits(16)

    def test_fp_builder_with_radix(self):
        fmt = FAMILY_BUILDERS["fp"](8, 5)
        assert (fmt.exp_bits, fmt.mantissa_bits) == (2, 5)

    def test_afp_bfp_builders(self):
        assert isinstance(FAMILY_BUILDERS["afp"](8, 3), AdaptivFloat)
        bfp = FAMILY_BUILDERS["bfp"](8, 3)
        assert isinstance(bfp, BlockFloatingPoint)
        assert bfp.block_size == 16

    def test_fxp_builder(self):
        fmt = FAMILY_BUILDERS["fxp"](9, 4)
        assert isinstance(fmt, FixedPoint)
        assert (fmt.int_bits, fmt.frac_bits) == (4, 4)

    def test_int_builder_ignores_radix(self):
        fmt = FAMILY_BUILDERS["int"](8, 99)
        assert isinstance(fmt, IntegerQuant)
        assert fmt.bits == 8

    def test_default_exp_bits_table(self):
        assert default_exp_bits(32) == 8
        assert default_exp_bits(16) == 5
        assert default_exp_bits(8) == 4
        assert default_exp_bits(4) == 2
        assert default_exp_bits(7) >= 2  # fallback path

    def test_radix_range_leaves_exponent_room(self):
        lo, hi = _radix_range("fp", 8)
        assert lo == 1 and hi == 5  # >= 2 exponent bits


class TestEvaluateFormatAccuracy:
    def test_matches_manual_sweep(self, model, data):
        images, labels = data
        acc = evaluate_format_accuracy(model, images, labels, "fp32")
        from repro import nn
        from repro.nn import Tensor
        model.eval()
        with nn.no_grad():
            manual = float((model(Tensor(images)).argmax(-1) == labels).mean())
        assert acc == pytest.approx(manual)

    def test_model_restored_after_evaluation(self, model, data):
        images, labels = data
        before = model.conv1.weight.data.copy()
        evaluate_format_accuracy(model, images, labels, "int4")
        np.testing.assert_array_equal(model.conv1.weight.data, before)

    def test_column_labels_are_rejected(self, model, data):
        # a (B, 1) column used to broadcast against the (B,) predictions
        images, labels = data
        with pytest.raises(ValueError, match="one label per image"):
            evaluate_format_accuracy(model, images, labels[:, None], "fp16")


class TestSearch:
    def test_node_budget_respected(self, model, data):
        for family in ("fp", "afp", "bfp", "fxp", "int"):
            result = binary_tree_search(model, *data, family=family, threshold=0.05)
            assert result.nodes_visited <= 16, family

    def test_unknown_family(self, model, data):
        with pytest.raises(KeyError, match="unknown family"):
            binary_tree_search(model, *data, family="posit")

    def test_invalid_threshold(self, model, data):
        with pytest.raises(ValueError, match="threshold"):
            binary_tree_search(model, *data, family="fp", threshold=2.0)

    def test_column_labels_are_rejected(self, model, data):
        images, labels = data
        with pytest.raises(ValueError, match="one label per image"):
            binary_tree_search(model, images, labels[:, None], family="fp")

    def test_baseline_reuse_skips_profiling(self, model, data):
        result = binary_tree_search(model, *data, family="int",
                                    baseline_accuracy=0.75)
        assert result.baseline_accuracy == 0.75

    def test_nodes_are_unique_configs(self, model, data):
        result = binary_tree_search(model, *data, family="fp", threshold=0.05)
        keys = [(n.bitwidth, n.radix) for n in result.nodes]
        assert len(keys) == len(set(keys))

    def test_node_indices_are_visit_order(self, model, data):
        result = binary_tree_search(model, *data, family="fp", threshold=0.05)
        assert [n.index for n in result.nodes] == list(range(len(result.nodes)))

    def test_phases_ordered_bitwidth_then_radix(self, model, data):
        result = binary_tree_search(model, *data, family="fp", threshold=0.05)
        phases = [n.phase for n in result.nodes]
        if "radix" in phases:
            assert phases.index("radix") >= phases.count("bitwidth")

    def test_int_family_has_no_radix_phase(self, model, data):
        result = binary_tree_search(model, *data, family="int", threshold=0.05)
        assert all(n.phase == "bitwidth" for n in result.nodes)

    def test_best_is_min_bitwidth_acceptable(self, model, data):
        result = binary_tree_search(model, *data, family="fp", threshold=0.05)
        if result.best is not None:
            acceptable = result.acceptable_nodes
            assert result.best.bitwidth == min(n.bitwidth for n in acceptable)

    def test_acceptable_flag_consistent_with_threshold(self, model, data):
        result = binary_tree_search(model, *data, family="fp", threshold=0.05)
        floor = result.baseline_accuracy - 0.05
        for node in result.nodes:
            assert node.acceptable == (node.accuracy >= floor)

    def test_impossible_threshold_yields_no_best(self, model, data):
        images, labels = data
        # baseline 1.1 is unreachable: nothing can be acceptable
        result = binary_tree_search(model, images, labels, family="fp",
                                    threshold=0.001, baseline_accuracy=1.1)
        assert result.best is None
        assert result.acceptable_nodes == []

    def test_custom_bitwidth_grid(self, model, data):
        result = binary_tree_search(model, *data, family="int",
                                    bitwidths=(4, 8), threshold=0.05)
        assert all(n.bitwidth in (4, 8) for n in result.nodes)


class TestSearchOnTrainedModel:
    """On a genuinely trained model the heuristic should find real points."""

    def test_finds_low_precision_points(self, trained_model, val_data):
        images, labels = val_data
        result = binary_tree_search(trained_model, images[:64], labels[:64],
                                    family="fp", threshold=0.05)
        assert result.best is not None
        assert result.best.bitwidth < 32  # something below FP32 is acceptable

    def test_more_than_half_nodes_acceptable(self, trained_model, val_data):
        # Fig. 6's observation on trained models
        images, labels = val_data
        result = binary_tree_search(trained_model, images[:64], labels[:64],
                                    family="afp", threshold=0.05)
        assert len(result.acceptable_nodes) * 2 >= result.nodes_visited
