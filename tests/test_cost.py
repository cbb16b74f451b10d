"""Tests for the MAC-count and bitwidth cost proxies."""

import numpy as np

from repro.analysis import cost_table, count_macs, mac_cost, model_cost
from repro.formats import BlockFloatingPoint, FloatingPoint, make_format
from repro.models import deit_tiny, mobilenet_small, resnet18, simple_cnn


class TestCountMacs:
    def test_simple_cnn_hand_computed(self):
        model = simple_cnn(num_classes=10, image_size=32, seed=0)  # width 8
        macs = count_macs(model, (3, 32, 32))
        # conv1: 32x32 output, 8 out channels, 3x3x3 kernel volume
        assert macs["conv1"] == 32 * 32 * 8 * 27
        # conv2 runs after a 2x pool: 16x16 output, 16 out, 8*9 volume
        assert macs["conv2"] == 16 * 16 * 16 * 72
        # fc: 1024 -> 10
        assert macs["fc"] == 16 * 8 * 8 * 10

    def test_depthwise_macs_account_for_groups(self):
        model = mobilenet_small(num_classes=10, seed=0)
        macs = count_macs(model, (3, 32, 32))
        dw = macs["blocks.0.depthwise"]
        pw = macs["blocks.0.pointwise"]
        # depthwise: 32x32 x 8 channels x 9 (kernel volume / groups = 1*9)
        assert dw == 32 * 32 * 8 * 9
        # pointwise 1x1: 32x32 x 16 out x 8 in
        assert pw == 32 * 32 * 16 * 8

    def test_transformer_linear_positions(self):
        model = deit_tiny(num_classes=10, seed=0)
        macs = count_macs(model, (3, 32, 32))
        # qkv of block 0: 17 tokens x 64 in x 192 out
        assert macs["blocks.0.attn.qkv"] == 17 * 64 * 192

    def test_resnet_macs_positive_everywhere(self):
        model = resnet18(num_classes=10, seed=0)
        macs = count_macs(model, (3, 32, 32))
        assert len(macs) > 10
        assert all(v > 0 for v in macs.values())

    def test_model_unchanged(self):
        model = simple_cnn(seed=0)
        before = model.conv1.weight.data.copy()
        count_macs(model, (3, 32, 32))
        np.testing.assert_array_equal(model.conv1.weight.data, before)
        assert len(model.conv1._forward_hooks) == 0  # hooks removed


class TestMacCost:
    def test_fp32_is_unity(self):
        assert mac_cost("fp32") == 1.0

    def test_narrower_is_cheaper(self):
        assert mac_cost("fp16") < mac_cost("fp32")
        assert mac_cost("fp8") < mac_cost("fp16")
        assert mac_cost("int8") < mac_cost("int16")

    def test_bfp_cheaper_than_fp_same_mantissa(self):
        # shared exponent amortizes the exponent hardware across the block
        bfp = mac_cost(BlockFloatingPoint(8, 7, block_size=16))
        fp = mac_cost(FloatingPoint(8, 7))
        assert bfp < fp

    def test_accepts_instances_and_specs(self):
        assert mac_cost(make_format("int8")) == mac_cost("int8")

    def test_posit_cost_defined(self):
        assert 0 < mac_cost("posit8") < 1


class TestModelCost:
    def test_uniform_assignment(self):
        model = simple_cnn(seed=0)
        costs = model_cost(model, (3, 32, 32), "int8")
        assert {c.layer for c in costs} == {"conv1", "conv2", "fc"}
        assert all(c.bit_width == 8 for c in costs)

    def test_mixed_assignment_and_default(self):
        model = simple_cnn(seed=0)
        costs = model_cost(model, (3, 32, 32), {"conv1": "int8"})
        by_layer = {c.layer: c for c in costs}
        assert by_layer["conv1"].bit_width == 8
        assert by_layer["fc"].bit_width == 32  # unassigned defaults to fp32

    def test_quantized_model_is_cheaper(self):
        model = simple_cnn(seed=0)
        full = sum(c.relative_cost for c in model_cost(model, (3, 32, 32), "fp32"))
        quant = sum(c.relative_cost for c in model_cost(model, (3, 32, 32), "int8"))
        assert quant < full / 4

    def test_cost_table_renders(self):
        model = simple_cnn(seed=0)
        text = cost_table(model_cost(model, (3, 32, 32), "fp16"))
        assert "TOTAL" in text and "MACs" in text
