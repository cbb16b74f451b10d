"""Adversarial robustness as a function of the number format (§V-D).

The paper's future-direction use case: "GoldenEye can be used to simulate
different number formats for a given adversarial attack, and be used to
assess the attack's efficacy (or lack thereof)."  This module implements it:

* :func:`fgsm_attack` / :func:`pgd_attack` — white-box gradient attacks built
  on the substrate's autograd;
* :func:`attack_success_by_format` — craft adversarial examples against the
  native FP32 model, then measure how well they transfer to the same model
  running under each emulated number format.  Quantization acts as a (weak)
  input-gradient masker, so low-precision formats typically blunt part of the
  attack — the effect this tool quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..core.dse import evaluate_format_accuracy
from ..core.metrics import check_labels
from ..nn import functional as F
from ..nn.tensor import Tensor
from .tables import render_table

__all__ = ["AttackResult", "fgsm_attack", "pgd_attack", "attack_success_by_format"]


@dataclass(frozen=True)
class AttackResult:
    """Attack efficacy under one number format."""

    format_name: str
    clean_accuracy: float
    adversarial_accuracy: float

    @property
    def attack_success_rate(self) -> float:
        """Fraction of accuracy destroyed by the attack."""
        if self.clean_accuracy == 0:
            return 0.0
        return max(0.0, (self.clean_accuracy - self.adversarial_accuracy)
                   / self.clean_accuracy)


def _input_gradient(model: nn.Module, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
    x = Tensor(np.asarray(images, dtype=np.float32), requires_grad=True)
    model.eval()
    loss = F.cross_entropy(model(x), labels)
    loss.backward()
    return x.grad


def fgsm_attack(model: nn.Module, images: np.ndarray, labels: np.ndarray,
                epsilon: float = 0.05) -> np.ndarray:
    """Fast Gradient Sign Method: one signed-gradient step of size epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    grad = _input_gradient(model, images, labels)
    return (images + epsilon * np.sign(grad)).astype(np.float32)


def pgd_attack(model: nn.Module, images: np.ndarray, labels: np.ndarray,
               epsilon: float = 0.05, step_size: float | None = None,
               steps: int = 5) -> np.ndarray:
    """Projected Gradient Descent within an L-inf ball of radius epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    step_size = step_size if step_size is not None else 2.5 * epsilon / steps
    adversarial = np.asarray(images, dtype=np.float32).copy()
    for _ in range(steps):
        grad = _input_gradient(model, adversarial, labels)
        adversarial = adversarial + step_size * np.sign(grad)
        adversarial = np.clip(adversarial, images - epsilon, images + epsilon)
    return adversarial.astype(np.float32)


def attack_success_by_format(
    model: nn.Module,
    images: np.ndarray,
    labels: np.ndarray,
    formats: tuple = ("native", "fp16", "fp8", "int8", "bfp_e5m5_b16", "afp_e4m3"),
    epsilon: float = 0.05,
    attack: str = "fgsm",
    targets=("conv", "linear"),
) -> list[AttackResult]:
    """Craft an attack on the FP32 model; evaluate it under each format."""
    check_labels(images, labels)
    if attack == "fgsm":
        adversarial = fgsm_attack(model, images, labels, epsilon=epsilon)
    elif attack == "pgd":
        adversarial = pgd_attack(model, images, labels, epsilon=epsilon)
    else:
        raise ValueError(f"unknown attack {attack!r}; use 'fgsm' or 'pgd'")
    results = []
    for spec in formats:
        fmt = None if spec == "native" else spec
        clean = evaluate_format_accuracy(model, images, labels, fmt,
                                         targets=targets,
                                         batch_size=len(images))
        adv = evaluate_format_accuracy(model, adversarial, labels, fmt,
                                       targets=targets,
                                       batch_size=len(images))
        name = spec if isinstance(spec, str) else spec.name
        results.append(AttackResult(format_name=name, clean_accuracy=clean,
                                    adversarial_accuracy=adv))
    return results


def attack_table(results: list[AttackResult], attack: str, epsilon: float) -> str:
    """Render attack-efficacy results as an ASCII table."""
    rows = [(r.format_name, f"{r.clean_accuracy:.3f}", f"{r.adversarial_accuracy:.3f}",
             f"{r.attack_success_rate:.2%}") for r in results]
    return render_table(
        ["format", "clean accuracy", "adversarial accuracy", "attack success"],
        rows, title=f"{attack.upper()} (eps={epsilon}) efficacy vs number format")
