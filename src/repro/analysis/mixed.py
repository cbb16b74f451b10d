"""Per-layer (mixed) format assignment — the §V-C extension, implemented.

The paper lists mixed precision as future work at the *arithmetic* level
(accumulation/rounding across data types inside a MAC).  At the *assignment*
level, however, GoldenEye's per-layer hooks make a mixed-format network
directly expressible: each layer carries its own format instance.  This
module adds the natural search on top: profile each layer's quantization
sensitivity, then greedily assign the cheapest format that keeps the
end-to-end accuracy within a threshold — the layer-wise analogue of the
paper's use case 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.dse import evaluate_format_accuracy
from ..core.goldeneye import GoldenEye
from ..core.metrics import check_labels
from ..nn.module import Module
from ..nn.tensor import Tensor
from .. import nn
from .tables import render_table

__all__ = ["LayerSensitivity", "MixedPrecisionResult", "profile_layer_sensitivity",
           "assign_mixed_precision"]


@dataclass(frozen=True)
class LayerSensitivity:
    """Accuracy when only this layer runs in the candidate format."""

    layer: str
    format_name: str
    accuracy: float


@dataclass
class MixedPrecisionResult:
    """Outcome of the greedy mixed-precision assignment."""

    assignment: dict[str, str]
    accuracy: float
    baseline_accuracy: float
    mean_bits: float
    sensitivities: list[LayerSensitivity] = field(default_factory=list)

    def table(self) -> str:
        rows = [(layer, spec) for layer, spec in self.assignment.items()]
        return render_table(
            ["layer", "assigned format"], rows,
            title=(f"mixed-precision assignment: accuracy {self.accuracy:.3f} "
                   f"(baseline {self.baseline_accuracy:.3f}), "
                   f"mean element width {self.mean_bits:.1f} bits"))


def _native_accuracy(model: Module, images: np.ndarray, labels: np.ndarray) -> float:
    check_labels(images, labels)
    model.eval()
    with nn.no_grad():
        logits = model(Tensor(images))
    return float((logits.argmax(axis=-1) == labels).mean())


def profile_layer_sensitivity(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    candidate: str,
    targets=("conv", "linear"),
) -> list[LayerSensitivity]:
    """Accuracy with exactly one layer at a time emulated in ``candidate``.

    A layer whose solo emulation hurts accuracy is *sensitive* and should
    keep a wider format in a mixed assignment.
    """
    layer_names = GoldenEye(model, "fp32", targets=targets).layer_names()
    out = []
    for name in layer_names:
        accuracy = evaluate_format_accuracy(model, images, labels,
                                            {name: candidate}, targets=targets)
        out.append(LayerSensitivity(layer=name, format_name=candidate,
                                    accuracy=accuracy))
    return out


def assign_mixed_precision(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    cheap: str = "fp_e4m3",
    expensive: str = "fp16",
    threshold: float = 0.01,
    targets=("conv", "linear"),
) -> MixedPrecisionResult:
    """Greedy per-layer assignment: ``cheap`` where it is free, else ``expensive``.

    Layers are visited from least to most sensitive (by solo-emulation
    accuracy); each is downgraded to ``cheap`` and kept there only if the
    *end-to-end* accuracy of the partial assignment stays within
    ``threshold`` of baseline.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be a fraction in (0, 1)")
    baseline = _native_accuracy(model, images, labels)
    floor = baseline - threshold
    sensitivities = profile_layer_sensitivity(model, images, labels, cheap,
                                              targets=targets)
    order = sorted(sensitivities, key=lambda s: -s.accuracy)  # most robust first
    assignment = {s.layer: expensive for s in sensitivities}
    for s in order:
        trial = dict(assignment)
        trial[s.layer] = cheap
        accuracy = evaluate_format_accuracy(model, images, labels, trial,
                                            targets=targets)
        if accuracy >= floor:
            assignment = trial
    final_accuracy = evaluate_format_accuracy(model, images, labels, assignment,
                                              targets=targets)
    from ..formats import make_format
    widths = [make_format(spec).bit_width for spec in assignment.values()]
    return MixedPrecisionResult(
        assignment=assignment,
        accuracy=final_accuracy,
        baseline_accuracy=baseline,
        mean_bits=float(np.mean(widths)),
        sensitivities=sensitivities,
    )
