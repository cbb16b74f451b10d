"""Gradient error injection during training (the §V-C future direction).

The paper supports backpropagation through its number-format emulation but
notes that "the current infrastructure does not support error injection on
gradients. This is another direction we plan to take GoldenEye for modeling
errors during model training."  This module implements that direction on the
reproduction's substrate:

* a :class:`GradientInjector` arms single/multi-bit flips in named parameters'
  gradients, applied right after ``backward()`` (i.e. in the gradient buffer a
  real accelerator would hold before the optimizer reads it);
* gradients are interpreted in a configurable number format — flipping a bit
  of an FP32 gradient word by default, or of the emulated format's encoding —
  and the word is corrupted by :func:`repro.core.injection.corrupt_element`,
  the fused encode → flip → decode a weight injection goes through;
* :func:`train_with_gradient_faults` runs the paper's §V-D "build resilient
  models" experiment shape: training loops with a per-step fault probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..formats.base import NumberFormat
from ..formats.registry import make_format
from ..nn import functional as F
from ..nn.tensor import Tensor
from .faultmodels import SingleBit
from .injection import InjectionError, corrupt_element
from .metrics import check_labels

__all__ = ["GradientInjection", "GradientInjector", "train_with_gradient_faults",
           "FaultyTrainingResult"]


@dataclass(frozen=True)
class GradientInjection:
    """Flip ``bits`` of the gradient value at ``flat_index`` of ``parameter``."""

    parameter: str
    flat_index: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise InjectionError("at least one bit position is required")
        if self.flat_index < 0:
            raise InjectionError("flat_index must be non-negative")


class GradientInjector:
    """Applies bit flips to parameter gradients between backward() and step().

    Parameters
    ----------
    model:
        The model whose parameter gradients are targeted.
    number_format:
        Format in which a gradient word is interpreted for the flip.  The
        default ``None`` means the FP32 compute-fabric word (the classic
        model).  Formats with tensor-level metadata capture it from the
        gradient tensor itself at injection time.
    """

    def __init__(self, model: nn.Module, number_format: str | NumberFormat | None = None):
        self.model = model
        self.format: NumberFormat | None = (
            make_format(number_format) if number_format is not None else None)
        self._params = dict(model.named_parameters())
        self._plans: list[GradientInjection] = []
        self.injections_applied = 0

    # ------------------------------------------------------------------
    def arm(self, *plans: GradientInjection) -> None:
        for plan in plans:
            if plan.parameter not in self._params:
                raise InjectionError(
                    f"unknown parameter {plan.parameter!r}; known: "
                    f"{', '.join(sorted(self._params))}")
            param = self._params[plan.parameter]
            if plan.flat_index >= param.data.size:
                raise InjectionError(
                    f"flat_index {plan.flat_index} out of range for "
                    f"{plan.parameter} with {param.data.size} elements")
            width = self.format.bit_width if self.format is not None else 32
            for b in plan.bits:
                if not 0 <= b < width:
                    raise InjectionError(f"bit {b} out of range for {width}-bit word")
            self._plans.append(plan)

    def disarm(self) -> None:
        self._plans.clear()

    @property
    def active(self) -> bool:
        return bool(self._plans)

    def sample(self, rng: np.random.Generator, parameter: str | None = None,
               num_bits: int = 1) -> GradientInjection:
        """Uniformly sample a gradient injection site."""
        names = sorted(self._params)
        name = parameter if parameter is not None else names[int(rng.integers(len(names)))]
        if name not in self._params:
            raise InjectionError(f"unknown parameter {name!r}")
        param = self._params[name]
        width = self.format.bit_width if self.format is not None else 32
        index = int(rng.integers(param.data.size))
        return GradientInjection(name, index,
                                 SingleBit().sample_bits(rng, width, num_bits))

    # ------------------------------------------------------------------
    def apply(self) -> int:
        """Corrupt the armed gradient sites; call after ``backward()``.

        Returns the number of flips performed (plans whose parameter received
        no gradient this step are skipped, matching hardware where an unread
        buffer cannot be consumed).
        """
        performed = 0
        for plan in self._plans:
            grad = self._params[plan.parameter].grad
            if grad is None:
                continue
            if self.format is not None:
                # interpret the gradient tensor in the emulated format: its
                # metadata (scale/bias/shared exponents) comes from the
                # gradient itself, as a gradient buffer in that format would
                self.format.real_to_format_tensor(grad)
            corrupt_element(self.format, grad, plan.flat_index, plan.bits)
            performed += 1
        self.injections_applied += performed
        return performed


@dataclass
class FaultyTrainingResult:
    """Outcome of a training run with gradient faults injected."""

    losses: list[float]
    final_accuracy: float
    faults_injected: int
    diverged: bool


def train_with_gradient_faults(
    model: nn.Module,
    images: np.ndarray,
    labels: np.ndarray,
    epochs: int = 2,
    batch_size: int = 32,
    lr: float = 1e-3,
    fault_probability: float = 0.1,
    number_format: str | NumberFormat | None = None,
    seed: int = 0,
    clip_gradients: float | None = None,
    force_bit: int | None = None,
) -> FaultyTrainingResult:
    """Train under randomly-injected gradient bit flips.

    Each optimizer step suffers one random single-bit gradient flip with
    probability ``fault_probability``.  ``clip_gradients`` optionally bounds
    gradient magnitudes after injection — the natural software-directed
    protection for this error model (clipping masks exponent-bit blowups).
    ``force_bit`` pins the flipped bit position (e.g. 1 = the FP32 exponent
    MSB, the worst case) instead of sampling it uniformly.
    """
    if not 0.0 <= fault_probability <= 1.0:
        raise ValueError("fault_probability must be within [0, 1]")
    check_labels(images, labels)  # the loss and the final accuracy need it
    rng = np.random.default_rng(seed)
    injector = GradientInjector(model, number_format)
    optimizer = nn.Adam(model.parameters(), lr=lr)
    losses: list[float] = []
    faults = 0
    for _ in range(epochs):
        order = rng.permutation(len(images))
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            model.train()
            optimizer.zero_grad()
            loss = F.cross_entropy(model(Tensor(images[idx])), labels[idx])
            loss.backward()
            if rng.random() < fault_probability:
                injector.disarm()
                plan = injector.sample(rng)
                if force_bit is not None:
                    plan = GradientInjection(plan.parameter, plan.flat_index,
                                             (force_bit,))
                injector.arm(plan)
                faults += injector.apply()
                injector.disarm()
            if clip_gradients is not None:
                for p in model.parameters():
                    if p.grad is not None:
                        np.clip(np.nan_to_num(p.grad, nan=0.0,
                                              posinf=clip_gradients,
                                              neginf=-clip_gradients),
                                -clip_gradients, clip_gradients, out=p.grad)
            optimizer.step()
            losses.append(loss.item())
    model.eval()
    with nn.no_grad():
        logits = model(Tensor(images))
    final_accuracy = float((logits.argmax(axis=-1) == labels).mean())
    diverged = bool(np.isnan(losses[-1]) or losses[-1] > 10 * max(losses[0], 1.0)
                    or not np.isfinite(logits.data).all())
    return FaultyTrainingResult(losses=losses, final_accuracy=final_accuracy,
                                faults_injected=faults, diverged=diverged)
