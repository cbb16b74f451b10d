"""Per-layer resilience aggregation (the analysis behind Fig. 7).

Wraps the campaign runner with the paper's §IV-C procedure: for a model and a
format, run value- and metadata-injection campaigns at layer granularity and
assemble the per-layer ΔLoss profile, plus the single-value network summary
(ΔLoss averaged across layers) used by the §V-A tuning discussion.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..core.campaign import CampaignResult, CampaignSpec, campaign_settings, \
    run_campaign
from ..core.goldeneye import GoldenEye
from ..nn.module import Module
from .tables import render_table

if TYPE_CHECKING:
    from ..exec import ExecConfig

__all__ = ["ResilienceProfile", "profile_resilience",
           "layer_vulnerability_table", "fault_pattern_table"]


@dataclass
class ResilienceProfile:
    """Value- and metadata-injection results for one (model, format) pair."""

    model_name: str
    format_name: str
    value_campaign: CampaignResult
    metadata_campaign: CampaignResult | None

    @property
    def layers(self) -> list[str]:
        return list(self.value_campaign.per_layer)

    def value_delta_losses(self) -> list[float]:
        return [r.mean_delta_loss for r in self.value_campaign.per_layer.values()]

    def metadata_delta_losses(self) -> list[float]:
        if self.metadata_campaign is None:
            return []
        return [r.mean_delta_loss for r in self.metadata_campaign.per_layer.values()]

    def network_value_delta_loss(self) -> float:
        """ΔLoss averaged across all layers (the §V-A summary scalar)."""
        losses = self.value_delta_losses()
        return float(np.mean(losses)) if losses else 0.0

    def network_metadata_delta_loss(self) -> float:
        losses = self.metadata_delta_losses()
        return float(np.mean(losses)) if losses else 0.0

    def combined_delta_loss(self) -> float:
        """Average of value and metadata resilience (Fig. 9's y-axis)."""
        parts = [self.network_value_delta_loss()]
        if self.metadata_campaign is not None:
            parts.append(self.network_metadata_delta_loss())
        return float(np.mean(parts))


def profile_resilience(
    model: Module,
    model_name: str,
    format_spec,
    images: np.ndarray,
    labels: np.ndarray,
    detector=None,
    use_range_detector: bool = False,
    targets=("conv", "linear"),
    profiler=None,
    numerics=None,
    *,
    spec: CampaignSpec | None = None,
    exec_config: ExecConfig | None = None,
    journal: str | None = None,
    serve=None,
    ledger=None,
    **fields,
) -> ResilienceProfile:
    """Run the paper's per-layer value + metadata campaigns for one format.

    ``spec``, ``exec_config``, ``journal``, ``serve``, ``ledger`` and the
    keyword ``fields`` mean what they mean for
    :func:`~repro.core.campaign.run_campaign`.  The value campaign runs
    ``spec`` as a value campaign; the metadata campaign runs it as a
    metadata campaign at ``seed + 1``, journaled to ``journal +
    ".metadata"``, and only when the format has metadata and the fault
    model is ``"single"`` (the fault-model axis is a value-word concept).
    With a ledger, each campaign gets its own row.  ``serve="host:port"``
    starts one live observability server spanning *both* campaigns, so a
    watcher keeps its endpoint across the hand-off.

    ``use_range_detector=True`` reproduces the paper's default setting
    (§V-B: the detector is enabled by default for resiliency analysis): a
    :class:`~repro.core.detector.RangeDetector` is profiled on a clean pass
    over the evaluation batch and then clamps every instrumented layer, so
    metadata blow-ups are bounded by each layer's observed activation range.

    ``profiler`` (a :class:`~repro.obs.profiler.LayerProfiler`) splits every
    instrumented forward into compute / quantize / inject / detect phases.

    ``numerics`` (a :class:`~repro.obs.numerics.NumericHealthMonitor`)
    records per-layer quantization error, saturation / flush-to-zero /
    NaN-remap counts and dynamic-range coverage through the formats' stats
    sinks; its ``as_dict()`` / ``table()`` read both campaigns' bookings.
    Neither observer changes how the campaigns run: fault batching and the
    output resume apply as without them.
    """
    spec, exec_config = campaign_settings(spec, exec_config, fields)
    spec = replace(spec, kind="value")
    if use_range_detector and detector is None:
        from ..core.detector import RangeDetector

        detector = RangeDetector()
    platform = GoldenEye(model, format_spec, targets=targets,
                         range_detector=detector, profiler=profiler,
                         numerics=numerics)
    from ..obs.live import LiveServer

    with (LiveServer.start(serve) if isinstance(serve, str)
          else nullcontext(serve)) as server, platform:
        if use_range_detector:
            from ..core.campaign import golden_inference

            detector.active = False
            golden_inference(platform, images, labels)  # profiling pass
            detector.active = True
        value_campaign = run_campaign(
            platform, images, labels, spec=spec, exec_config=exec_config,
            journal=journal, serve=server, ledger=ledger)
        fmt = platform.spawn_format()
        metadata_campaign = None
        if fmt is not None and fmt.has_metadata \
                and spec.fault_model == "single":
            metadata_campaign = run_campaign(
                platform, images, labels,
                spec=replace(spec, kind="metadata", seed=spec.seed + 1),
                exec_config=exec_config,
                journal=f"{journal}.metadata" if journal else None,
                serve=server, ledger=ledger)
    return ResilienceProfile(
        model_name=model_name,
        format_name=value_campaign.format_name,
        value_campaign=value_campaign,
        metadata_campaign=metadata_campaign,
    )


def layer_vulnerability_table(profile: ResilienceProfile) -> str:
    """Fig. 7-style per-layer table: ΔLoss under value vs metadata flips."""
    meta = profile.metadata_campaign.per_layer if profile.metadata_campaign else {}
    rows = []
    for layer, value_result in profile.value_campaign.per_layer.items():
        meta_result = meta.get(layer)
        rows.append((
            layer,
            f"{value_result.mean_delta_loss:.4f}",
            f"{meta_result.mean_delta_loss:.4f}" if meta_result else "n/a",
            f"{value_result.mismatch_rate:.3f}",
            f"{meta_result.mismatch_rate:.3f}" if meta_result else "n/a",
        ))
    return render_table(
        ["layer", "ΔLoss (value)", "ΔLoss (metadata)", "mismatch (value)", "mismatch (metadata)"],
        rows,
        title=f"{profile.model_name} under {profile.format_name} ({profile.value_campaign.location})",
    )


def fault_pattern_table(campaign: CampaignResult, group: str = "len") -> str:
    """Per-fault-pattern breakdown of a campaign's layers.

    ``group="len"`` tabulates per-burst-length statistics (``len1``,
    ``len2``, ``len4`` — the flipped-bit count of each record);
    ``group="start"`` tabulates multi-bit faults by their start (alignment)
    position.  Groups come from
    :attr:`~repro.core.campaign.LayerCampaignResult.by_pattern`, which the
    aggregator fills for every campaign regardless of fault model.
    """
    if group not in ("len", "start"):
        raise ValueError(f"group must be 'len' or 'start', got {group!r}")
    patterns: list[str] = []
    for result in campaign.per_layer.values():
        for key in result.by_pattern:
            if key.startswith(group) and key not in patterns:
                patterns.append(key)
    patterns.sort(key=lambda k: int(k[len(group):]))
    rows = []
    for layer, result in campaign.per_layer.items():
        row = [layer]
        for key in patterns:
            stats = result.by_pattern.get(key)
            row.append(f"{stats['sdc_rate']:.3f}/{stats['mean_delta_loss']:.3f}"
                       if stats else "n/a")
        rows.append(tuple(row))
    return render_table(
        ["layer"] + [f"{p} (SDC/ΔLoss)" for p in patterns],
        rows,
        title=f"{campaign.format_name} {campaign.kind} faults by "
              f"{'bit count' if group == 'len' else 'start position'}",
    )
