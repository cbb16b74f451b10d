"""Design-space exploration heuristic for number-format selection (§IV-B).

The paper's heuristic is a recursive binary-tree search over a format's
parameters (Fig. 5): measure the baseline FP32 accuracy, then walk a binary
tree over bitwidth — taking the "shorter" branch whenever the measured
accuracy stays within a threshold of baseline (default 1%) — and then a
second tree over the radix at the chosen bitwidth.  Exploring logarithmically
keeps the walk to at most ~16 evaluated nodes (Fig. 6) while still producing
multiple accuracy-preserving low-precision design points.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import nn
from ..formats.afp import AdaptivFloat
from ..formats.base import NumberFormat
from ..formats.bfp import BlockFloatingPoint
from ..formats.fp import FloatingPoint
from ..formats.fxp import FixedPoint
from ..formats.intq import IntegerQuant
from ..nn.tensor import Tensor
from ..obs.telemetry import get_registry
from ..obs.tracing import get_tracer
from .goldeneye import GoldenEye
from .metrics import check_labels

logger = logging.getLogger("repro.dse")

__all__ = ["DseNode", "DseResult", "binary_tree_search", "evaluate_format_accuracy",
           "FAMILY_BUILDERS", "default_exp_bits"]


@dataclass(frozen=True)
class DseNode:
    """One evaluated point of the search tree."""

    index: int
    phase: str  # "bitwidth" | "radix"
    format: NumberFormat
    bitwidth: int
    radix: int
    accuracy: float
    acceptable: bool


@dataclass
class DseResult:
    """Full trace + outcome of one heuristic run."""

    family: str
    baseline_accuracy: float
    threshold: float
    nodes: list[DseNode] = field(default_factory=list)

    @property
    def acceptable_nodes(self) -> list[DseNode]:
        return [n for n in self.nodes if n.acceptable]

    @property
    def best(self) -> DseNode | None:
        """Lowest-cost acceptable point: min bitwidth, then min radix."""
        candidates = self.acceptable_nodes
        if not candidates:
            return None
        return min(candidates, key=lambda n: (n.bitwidth, n.radix))

    @property
    def nodes_visited(self) -> int:
        return len(self.nodes)


def default_exp_bits(bitwidth: int) -> int:
    """Default exponent width per total bitwidth (named-format conventions)."""
    table = {32: 8, 24: 8, 20: 6, 16: 5, 12: 5, 10: 5, 8: 4, 6: 3, 5: 2, 4: 2}
    return table.get(bitwidth, max(2, bitwidth // 3))


def _fp_builder(bitwidth: int, radix: int | None) -> NumberFormat:
    m = radix if radix is not None else bitwidth - 1 - default_exp_bits(bitwidth)
    e = bitwidth - 1 - m
    return FloatingPoint(max(e, 2), max(m, 1))


def _afp_builder(bitwidth: int, radix: int | None) -> NumberFormat:
    m = radix if radix is not None else bitwidth - 1 - default_exp_bits(bitwidth)
    e = bitwidth - 1 - m
    return AdaptivFloat(max(e, 2), max(m, 1))


def _bfp_builder(bitwidth: int, radix: int | None, block_size: int | None = 16) -> NumberFormat:
    m = radix if radix is not None else bitwidth - 1 - default_exp_bits(bitwidth)
    e = bitwidth - 1 - m
    return BlockFloatingPoint(max(e, 2), max(m, 1), block_size=block_size)


def _fxp_builder(bitwidth: int, radix: int | None) -> NumberFormat:
    f = radix if radix is not None else (bitwidth - 1) // 2
    i = bitwidth - 1 - f
    return FixedPoint(max(i, 0), max(f, 0))


def _int_builder(bitwidth: int, radix: int | None) -> NumberFormat:
    return IntegerQuant(bitwidth)


FAMILY_BUILDERS: dict[str, Callable[[int, int | None], NumberFormat]] = {
    "fp": _fp_builder,
    "afp": _afp_builder,
    "bfp": _bfp_builder,
    "fxp": _fxp_builder,
    "int": _int_builder,
}

#: radix search is meaningless for pure-integer quantization
_FAMILIES_WITH_RADIX = ("fp", "afp", "bfp", "fxp")


def evaluate_format_accuracy(
    model: nn.Module,
    images: np.ndarray,
    labels: np.ndarray,
    number_format: NumberFormat | str,
    targets=("conv", "linear"),
    batch_size: int = 64,
) -> float:
    """Top-1 accuracy of ``model`` under emulated ``number_format``."""
    check_labels(images, labels)
    platform = GoldenEye(model, number_format, targets=targets)
    correct = 0
    with platform:
        model.eval()
        with nn.no_grad():
            for start in range(0, len(images), batch_size):
                batch = Tensor(images[start : start + batch_size])
                logits = model(batch)
                correct += int((logits.argmax(axis=-1) == labels[start : start + batch_size]).sum())
    return correct / len(images)


def binary_tree_search(
    model: nn.Module,
    images: np.ndarray,
    labels: np.ndarray,
    family: str = "fp",
    threshold: float = 0.01,
    bitwidths: tuple[int, ...] = (4, 6, 8, 10, 12, 16, 24, 32),
    targets=("conv", "linear"),
    max_nodes: int = 16,
    baseline_accuracy: float | None = None,
) -> DseResult:
    """Run the paper's binary-tree DSE heuristic for one format family.

    Phase 1 binary-searches the smallest acceptable *bitwidth* (taking the
    shorter-bitwidth branch whenever the node's accuracy is within
    ``threshold`` of baseline); phase 2 binary-searches the smallest
    acceptable *radix* at that bitwidth.  Returns the full node trace, which
    is what Fig. 6 plots (x-axis ordered by visit order).
    """
    if family not in FAMILY_BUILDERS:
        raise KeyError(f"unknown family {family!r}; known: {', '.join(FAMILY_BUILDERS)}")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be a fraction in (0, 1)")
    builder = FAMILY_BUILDERS[family]
    widths = sorted(set(bitwidths))
    if baseline_accuracy is None:
        # native FP32 profiling pass (no emulation overhead, §IV-B)
        baseline_accuracy = _native_accuracy(model, images, labels)
    floor = baseline_accuracy - threshold
    result = DseResult(family=family, baseline_accuracy=baseline_accuracy,
                       threshold=threshold)

    visited: dict[tuple[int, int], DseNode] = {}

    tracer = get_tracer()
    registry = get_registry()
    registry.gauge("dse.baseline_accuracy", family=family).set(baseline_accuracy)

    def evaluate(bitwidth: int, radix: int | None, phase: str) -> DseNode:
        fmt = builder(bitwidth, radix)
        key = (bitwidth, fmt.radix)
        if key in visited:  # phase 2 may land on phase 1's default split
            return visited[key]
        t0 = time.perf_counter()
        with tracer.span("dse.node", family=family, phase=phase,
                         format=fmt.name, bitwidth=bitwidth) as node_span:
            accuracy = evaluate_format_accuracy(model, images, labels, fmt,
                                                targets=targets)
            node_span.set(accuracy=accuracy, acceptable=bool(accuracy >= floor))
        registry.counter("dse.nodes_total",
                         help="DSE tree nodes evaluated", family=family).inc()
        registry.histogram("dse.node_seconds",
                           help="wall-clock per DSE node evaluation",
                           family=family).observe(time.perf_counter() - t0)
        logger.debug("dse node %s %s: accuracy %.4f (floor %.4f)",
                     phase, fmt.name, accuracy, floor)
        node = DseNode(
            index=len(result.nodes),
            phase=phase,
            format=fmt,
            bitwidth=bitwidth,
            radix=fmt.radix,
            accuracy=accuracy,
            acceptable=accuracy >= floor,
        )
        result.nodes.append(node)
        visited[key] = node
        return node

    # ---- phase 1: binary tree over bitwidth -------------------------------
    lo, hi = 0, len(widths) - 1
    best_width: int | None = None
    while lo <= hi and len(result.nodes) < max_nodes:
        mid = (lo + hi) // 2
        node = evaluate(widths[mid], None, "bitwidth")
        if node.acceptable:
            best_width = widths[mid]
            hi = mid - 1  # aggressively try shorter bitwidths
        else:
            lo = mid + 1
    if best_width is None:
        # nothing acceptable: fall back to the widest point for phase 2
        best_width = widths[-1]

    # ---- phase 2: binary tree over radix at the chosen bitwidth -----------
    if family in _FAMILIES_WITH_RADIX and len(result.nodes) < max_nodes:
        radix_lo, radix_hi = _radix_range(family, best_width)
        lo, hi = radix_lo, radix_hi
        while lo <= hi and len(result.nodes) < max_nodes:
            mid = (lo + hi) // 2
            node = evaluate(best_width, mid, "radix")
            if node.acceptable:
                hi = mid - 1  # aggressively try a shorter radix
            else:
                lo = mid + 1
    return result


def _radix_range(family: str, bitwidth: int) -> tuple[int, int]:
    """Valid radix (mantissa/fraction bits) interval at a given bitwidth."""
    if family in ("fp", "afp", "bfp"):
        return 1, max(bitwidth - 3, 1)  # leave >= 2 exponent bits
    return 1, max(bitwidth - 2, 1)  # fxp: leave >= 1 integer bit


def _native_accuracy(model: nn.Module, images: np.ndarray, labels: np.ndarray,
                     batch_size: int = 64) -> float:
    check_labels(images, labels)
    model.eval()
    correct = 0
    with nn.no_grad():
        for start in range(0, len(images), batch_size):
            logits = model(Tensor(images[start : start + batch_size]))
            correct += int((logits.argmax(axis=-1) == labels[start : start + batch_size]).sum())
    return correct / len(images)
