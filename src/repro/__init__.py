"""GoldenEye reproduction: a functional simulator of numerical data formats
for DNN accelerators, with fault injection for data values and hardware
metadata.

Subpackages
-----------
``repro.nn``
    From-scratch deep-learning substrate (tensors, autograd, modules, hooks).
``repro.models``
    Model zoo: ResNet-family CNNs, DeiT-family vision transformers.
``repro.data``
    Synthetic ImageNet stand-in, data loading, train-and-cache helpers.
``repro.formats``
    The five emulated number systems (FP, FxP, INT, BFP, AFP) with hardware
    metadata registers.
``repro.core``
    The GoldenEye platform: emulation hooks, error injection, metrics,
    campaigns, DSE heuristic, range detector.
``repro.analysis``
    Resilience profiles, tradeoff studies, and report rendering.
``repro.obs``
    Observability: metrics registry, span tracer with JSONL event sink,
    per-layer profiler, JSON/Prometheus exporters.
"""

from . import analysis, core, data, formats, models, nn, obs
from .core import GoldenEye
from .formats import make_format

__version__ = "1.1.0"

__all__ = ["nn", "models", "data", "formats", "core", "analysis", "obs",
           "GoldenEye", "make_format", "__version__"]
