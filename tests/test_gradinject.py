"""Tests for gradient error injection and training under faults (§V-C ext)."""

import numpy as np
import pytest

from repro.core import (
    GradientInjection,
    GradientInjector,
    InjectionError,
    train_with_gradient_faults,
)
from repro.models import simple_mlp
from repro.nn import Tensor
from repro.nn import functional as F


@pytest.fixture
def model():
    return simple_mlp(num_classes=4, image_size=4, seed=0)


def backward_once(model, rng):
    x = Tensor(rng.standard_normal((4, 3, 4, 4)).astype(np.float32))
    labels = np.array([0, 1, 2, 3])
    model.train()
    model.zero_grad()
    F.cross_entropy(model(x), labels).backward()


class TestPlanValidation:
    def test_requires_bits(self):
        with pytest.raises(InjectionError, match="bit"):
            GradientInjection("fc1.weight", 0, ())

    def test_negative_index(self):
        with pytest.raises(InjectionError, match="flat_index"):
            GradientInjection("fc1.weight", -1, (0,))

    def test_unknown_parameter(self, model):
        inj = GradientInjector(model)
        with pytest.raises(InjectionError, match="unknown parameter"):
            inj.arm(GradientInjection("nope.weight", 0, (0,)))

    def test_index_out_of_range(self, model):
        inj = GradientInjector(model)
        with pytest.raises(InjectionError, match="out of range"):
            inj.arm(GradientInjection("fc3.bias", 10 ** 9, (0,)))

    def test_bit_out_of_range(self, model):
        inj = GradientInjector(model)
        with pytest.raises(InjectionError, match="bit"):
            inj.arm(GradientInjection("fc3.bias", 0, (32,)))

    def test_bit_range_respects_format(self, model):
        inj = GradientInjector(model, "int8")
        with pytest.raises(InjectionError, match="bit"):
            inj.arm(GradientInjection("fc3.bias", 0, (8,)))


class TestApplication:
    def test_flip_changes_exactly_one_gradient(self, model, rng):
        backward_once(model, rng)
        before = model.fc3.weight.grad.copy()
        inj = GradientInjector(model)
        inj.arm(GradientInjection("fc3.weight", 5, (1,)))
        assert inj.apply() == 1
        after = model.fc3.weight.grad
        changed = before != after
        assert changed.sum() == 1
        assert changed.reshape(-1)[5]

    def test_native_flip_keeps_the_neuron_kernels_bits(self, model, rng):
        """An FP32 gradient word flips through the neuron kernel: bits
        (0, 2) of 2e19 give the signalling NaN 0xFF8AC723, as a weight or
        neuron flip does, where the old inline codec stored 0xFFCAC723."""
        backward_once(model, rng)
        grad = model.fc3.weight.grad
        site = np.unravel_index(4, grad.shape)  # the buffer may be strided
        grad[site] = np.float32(2e19)
        inj = GradientInjector(model)
        inj.arm(GradientInjection("fc3.weight", 4, (0, 2)))
        assert inj.apply() == 1
        assert np.float32(grad[site]).view(np.uint32) == 0xFF8AC723

    def test_exponent_flip_is_large(self, model, rng):
        backward_once(model, rng)
        inj = GradientInjector(model)
        inj.arm(GradientInjection("fc3.weight", 0, (1,)))  # FP32 exponent MSB
        inj.apply()
        value = abs(float(model.fc3.weight.grad.reshape(-1)[0]))
        assert value > 1e10 or value < 1e-10

    def test_skips_when_no_gradient(self, model):
        inj = GradientInjector(model)
        inj.arm(GradientInjection("fc3.weight", 0, (1,)))
        assert inj.apply() == 0  # no backward happened

    def test_disarm(self, model, rng):
        inj = GradientInjector(model)
        inj.arm(GradientInjection("fc3.weight", 0, (1,)))
        inj.disarm()
        assert not inj.active
        backward_once(model, rng)
        assert inj.apply() == 0

    def test_emulated_format_interpretation(self, model, rng):
        backward_once(model, rng)
        inj = GradientInjector(model, "int8")
        inj.arm(GradientInjection("fc3.weight", 3, (0,)))  # sign of the int code
        inj.apply()
        assert inj.injections_applied == 1

    def test_bfp_gradient_flip_uses_blocks(self, model, rng):
        backward_once(model, rng)
        inj = GradientInjector(model, "bfp_e5m5_b8")
        inj.arm(GradientInjection("fc3.weight", 17, (0,)))
        assert inj.apply() == 1

    def test_sampling_bounds(self, model, rng):
        inj = GradientInjector(model, "int8")
        generator = np.random.default_rng(0)
        for _ in range(20):
            plan = inj.sample(generator)
            param = dict(model.named_parameters())[plan.parameter]
            assert plan.flat_index < param.data.size
            assert all(0 <= b < 8 for b in plan.bits)

    def test_sampling_specific_parameter(self, model):
        inj = GradientInjector(model)
        plan = inj.sample(np.random.default_rng(0), parameter="fc1.weight")
        assert plan.parameter == "fc1.weight"
        with pytest.raises(InjectionError):
            inj.sample(np.random.default_rng(0), parameter="ghost")


class TestFaultyTraining:
    @pytest.fixture
    def train_data(self, splits):
        (tx, ty), _ = splits
        return tx[:96], ty[:96]

    def test_zero_probability_trains_cleanly(self, train_data):
        from repro.models import simple_cnn
        result = train_with_gradient_faults(
            simple_cnn(num_classes=6, seed=0), *train_data,
            epochs=2, fault_probability=0.0, seed=0)
        assert result.faults_injected == 0
        assert result.losses[-1] < result.losses[0]
        assert not result.diverged

    def test_faults_are_injected(self, train_data):
        from repro.models import simple_cnn
        result = train_with_gradient_faults(
            simple_cnn(num_classes=6, seed=0), *train_data,
            epochs=2, fault_probability=1.0, seed=0)
        assert result.faults_injected > 0

    def test_invalid_probability(self, train_data):
        from repro.models import simple_cnn
        with pytest.raises(ValueError, match="probability"):
            train_with_gradient_faults(simple_cnn(num_classes=6, seed=0),
                                       *train_data, fault_probability=1.5)

    def test_column_labels_are_rejected(self, train_data):
        from repro.models import simple_cnn
        images, labels = train_data
        with pytest.raises(ValueError, match="labels"):
            train_with_gradient_faults(simple_cnn(num_classes=6, seed=0),
                                       images, labels[:, None], epochs=1,
                                       fault_probability=0.0)

    def test_clipping_bounds_gradients(self, train_data):
        # with exponent flips possible, clipping guarantees finite weights
        from repro.models import simple_cnn
        result = train_with_gradient_faults(
            simple_cnn(num_classes=6, seed=0), *train_data,
            epochs=2, fault_probability=1.0, seed=0, clip_gradients=1.0)
        assert not result.diverged
        assert np.isfinite(result.losses).all()

    def test_deterministic_by_seed(self, train_data):
        from repro.models import simple_cnn
        runs = [train_with_gradient_faults(simple_cnn(num_classes=6, seed=0),
                                           *train_data, epochs=1,
                                           fault_probability=0.5, seed=7)
                for _ in range(2)]
        assert runs[0].losses == runs[1].losses
        assert runs[0].faults_injected == runs[1].faults_injected
