"""Tests for the adversarial-robustness-vs-format analysis (§V-D use case)."""

import numpy as np
import pytest

from repro.analysis import (
    AttackResult,
    attack_success_by_format,
    attack_table,
    fgsm_attack,
    pgd_attack,
)
from repro.models import simple_cnn


@pytest.fixture
def model():
    return simple_cnn(num_classes=4, image_size=8, seed=0)


@pytest.fixture
def data(rng):
    return (rng.standard_normal((8, 3, 8, 8)).astype(np.float32),
            rng.integers(0, 4, size=8))


class TestAttacks:
    def test_fgsm_perturbation_is_epsilon_bounded(self, model, data):
        images, labels = data
        adversarial = fgsm_attack(model, images, labels, epsilon=0.1)
        assert np.abs(adversarial - images).max() <= 0.1 + 1e-6
        assert adversarial.dtype == np.float32

    def test_fgsm_rejects_bad_epsilon(self, model, data):
        with pytest.raises(ValueError, match="epsilon"):
            fgsm_attack(model, *data, epsilon=0.0)

    def test_pgd_stays_in_ball(self, model, data):
        images, labels = data
        adversarial = pgd_attack(model, images, labels, epsilon=0.1, steps=4)
        assert np.abs(adversarial - images).max() <= 0.1 + 1e-6

    def test_pgd_rejects_bad_args(self, model, data):
        with pytest.raises(ValueError):
            pgd_attack(model, *data, epsilon=-1.0)
        with pytest.raises(ValueError):
            pgd_attack(model, *data, steps=0)

    @pytest.mark.parametrize("attack", [fgsm_attack, pgd_attack],
                             ids=["fgsm", "pgd"])
    def test_column_labels_are_rejected(self, model, data, attack):
        images, labels = data
        with pytest.raises(ValueError, match="one class per row"):
            attack(model, images, labels[:, None])

    def test_attacks_leave_model_params_clean(self, model, data):
        before = {k: v.copy() for k, v in model.state_dict().items()}
        fgsm_attack(model, *data, epsilon=0.05)
        pgd_attack(model, *data, epsilon=0.05, steps=2)
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_fgsm_increases_loss_on_trained_model(self, trained_model, val_data):
        from repro import nn
        from repro.nn import Tensor
        from repro.nn import functional as F
        images, labels = val_data
        x, y = images[:32], labels[:32]
        adversarial = fgsm_attack(trained_model, x, y, epsilon=0.2)
        trained_model.eval()
        with nn.no_grad():
            clean_loss = F.cross_entropy(trained_model(Tensor(x)), y).item()
            adv_loss = F.cross_entropy(trained_model(Tensor(adversarial)), y).item()
        assert adv_loss > clean_loss

    def test_pgd_at_least_as_strong_as_fgsm(self, trained_model, val_data):
        from repro import nn
        from repro.nn import Tensor
        from repro.nn import functional as F
        images, labels = val_data
        x, y = images[:32], labels[:32]
        trained_model.eval()
        losses = {}
        for name, attack in (("fgsm", fgsm_attack),
                             ("pgd", lambda m, i, l, epsilon: pgd_attack(
                                 m, i, l, epsilon=epsilon, steps=5))):
            adv = attack(trained_model, x, y, epsilon=0.15)
            with nn.no_grad():
                losses[name] = F.cross_entropy(trained_model(Tensor(adv)), y).item()
        assert losses["pgd"] >= losses["fgsm"] * 0.9


class TestStudy:
    def test_results_per_format(self, model, data):
        results = attack_success_by_format(model, *data, epsilon=0.1,
                                           formats=("native", "fp16", "int8"))
        assert [r.format_name for r in results] == ["native", "fp16", "int8"]
        for r in results:
            assert 0.0 <= r.clean_accuracy <= 1.0
            assert 0.0 <= r.attack_success_rate <= 1.0

    def test_unknown_attack(self, model, data):
        with pytest.raises(ValueError, match="unknown attack"):
            attack_success_by_format(model, *data, attack="deepfool")

    def test_column_labels_are_rejected(self, model, data):
        images, labels = data
        with pytest.raises(ValueError, match="one label per image"):
            attack_success_by_format(model, images, labels[:, None],
                                     formats=("native", "fp16"))

    def test_pgd_study(self, model, data):
        results = attack_success_by_format(model, *data, epsilon=0.1,
                                           attack="pgd", formats=("native",))
        assert len(results) == 1

    def test_attack_reduces_accuracy_on_trained_model(self, trained_model, val_data):
        images, labels = val_data
        results = attack_success_by_format(trained_model, images[:48], labels[:48],
                                           epsilon=0.25, formats=("native", "fp8"))
        native = results[0]
        assert native.adversarial_accuracy < native.clean_accuracy

    def test_table_renders(self, model, data):
        results = attack_success_by_format(model, *data, epsilon=0.1,
                                           formats=("native",))
        text = attack_table(results, "fgsm", 0.1)
        assert "FGSM" in text and "attack success" in text

    def test_success_rate_zero_when_clean_accuracy_zero(self):
        r = AttackResult("x", clean_accuracy=0.0, adversarial_accuracy=0.0)
        assert r.attack_success_rate == 0.0
