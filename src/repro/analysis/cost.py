"""MAC-count and bitwidth-based hardware cost proxies (§V-C).

GoldenEye is not a cycle-accurate simulator; the paper notes that "users can
potentially use proxies such as number of MAC operations and expected MAC
area for runtime".  This module provides those proxies:

* :func:`count_macs` — per-layer multiply-accumulate counts for a model at a
  given input shape (conv via output-pixel × kernel volume, linear via the
  weight matrix, attention via its two batched matmuls);
* :func:`mac_cost` — a bitwidth-dependent relative cost per MAC.  Multiplier
  area/energy scales roughly quadratically with operand width and adder cost
  linearly, which is the standard first-order model used in accelerator
  design-space sketches;
* :func:`model_cost` — combine both into one relative energy/area figure for
  a (model, format assignment) pair, so DSE results can be ranked by hardware
  cost instead of raw bitwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..core.goldeneye import GoldenEye
from ..formats.base import NumberFormat
from ..formats.registry import make_format
from ..nn.tensor import Tensor
from .tables import render_table

__all__ = ["LayerCost", "count_macs", "mac_cost", "model_cost", "cost_table"]


@dataclass(frozen=True)
class LayerCost:
    """MACs and relative cost of one instrumented layer."""

    layer: str
    macs: int
    bit_width: int
    relative_cost: float


def count_macs(model: nn.Module, input_shape: tuple[int, ...],
               targets=("conv", "linear")) -> dict[str, int]:
    """Per-layer MAC counts for one inference at ``input_shape`` (no batch).

    Uses shape-recording hooks, so any architecture expressible on the
    substrate is supported without per-layer formulas drifting out of sync.
    """
    macs: dict[str, int] = {}
    handles = []

    def make_hook(name: str, module: nn.Module):
        def hook(mod, inputs, output):
            if isinstance(mod, nn.Conv2d):
                _, _, oh, ow = output.shape
                kernel_volume = (mod.in_channels // mod.groups) * mod.kernel_size ** 2
                macs[name] = macs.get(name, 0) + oh * ow * mod.out_channels * kernel_volume
            elif isinstance(mod, nn.Linear):
                # one MAC per (position, in_feature, out_feature)
                positions = int(np.prod(output.shape[:-1]))
                macs[name] = (macs.get(name, 0)
                              + positions * mod.in_features * mod.out_features)

        return hook

    platform = GoldenEye(model, "fp32", targets=targets, quantize_weights=False,
                         quantize_neurons=False)
    for name, state in platform.layers.items():
        handles.append(state.module.register_forward_hook(make_hook(name, state.module)))
    model.eval()
    with nn.no_grad():
        model(Tensor(np.zeros((1,) + tuple(input_shape), dtype=np.float32)))
    for handle in handles:
        handle.remove()
    return macs


def mac_cost(fmt: NumberFormat | str) -> float:
    """Relative per-MAC cost of a format, normalized to FP32 = 1.0.

    First-order model: multiplier cost ~ (multiplicand width)^2, accumulator
    cost ~ linear.  For FP-like formats the multiplicand is the mantissa (+
    implicit one) and the exponent adds a small adder; BFP multiplies plain
    mantissas and amortizes one shared exponent per block; INT/FxP multiply
    the full word.
    """
    fmt = make_format(fmt) if isinstance(fmt, str) else fmt
    kind = fmt.kind
    if kind in ("fp", "afp"):
        mant = fmt.mantissa_bits + 1
        exp = fmt.exp_bits
        raw = mant * mant + 2 * exp
    elif kind == "bfp":
        mant = fmt.mantissa_bits
        amortized_exp = fmt.exp_bits / (fmt.block_size or 64)
        raw = mant * mant + 2 * amortized_exp
    elif kind in ("fxp", "int"):
        width = fmt.bit_width
        raw = width * width
    elif kind == "posit":
        # decoded operands behave like (n - 2 - es)-bit mantissas plus
        # regime/exponent handling comparable to an FP exponent path
        mant = max(fmt.n - 2 - fmt.es, 1)
        raw = mant * mant + 2 * (fmt.es + 2)
    else:
        raw = fmt.bit_width * fmt.bit_width
    fp32 = 24 * 24 + 2 * 8
    return raw / fp32


def model_cost(
    model: nn.Module,
    input_shape: tuple[int, ...],
    assignment,
    targets=("conv", "linear"),
) -> list[LayerCost]:
    """Relative cost per layer under a uniform spec or per-layer mapping."""
    macs = count_macs(model, input_shape, targets=targets)
    costs = []
    for layer, layer_macs in macs.items():
        spec = assignment.get(layer) if isinstance(assignment, dict) else assignment
        if spec is None:
            spec = "fp32"
        fmt = make_format(spec)
        costs.append(LayerCost(
            layer=layer,
            macs=layer_macs,
            bit_width=fmt.bit_width,
            relative_cost=layer_macs * mac_cost(fmt),
        ))
    return costs


def cost_table(costs: list[LayerCost], title: str = "relative MAC cost") -> str:
    """Render per-layer costs plus a total row as an ASCII table."""
    total = sum(c.relative_cost for c in costs)
    rows = [(c.layer, f"{c.macs:,}", c.bit_width, f"{c.relative_cost:,.0f}")
            for c in costs]
    rows.append(("TOTAL", f"{sum(c.macs for c in costs):,}", "-", f"{total:,.0f}"))
    return render_table(["layer", "MACs", "element bits", "relative cost"],
                        rows, title=title)
