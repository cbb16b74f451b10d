"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures as printed
rows/series (the paper's absolute numbers come from an RTX 3060 + ImageNet;
here the substrate is the numpy simulator + synthetic dataset, so the *shape*
of each result is the reproduction target — see EXPERIMENTS.md).

Trained model weights are cached under ``REPRO_CACHE_DIR`` (default
``~/.cache/repro_goldeneye``), so only the first benchmark run pays for
training.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import run_campaign
from repro.data import SyntheticImageNet, get_pretrained

#: the standard experiment dataset (the "ImageNet validation set" stand-in)
DATASET_SEED = 0


@pytest.fixture(scope="session")
def dataset():
    return SyntheticImageNet(num_classes=10, num_samples=800, image_size=32,
                             seed=DATASET_SEED)


@pytest.fixture(scope="session")
def resnet(dataset):
    """The CNN under study (scaled ResNet18 analogue), trained and cached."""
    model, val = get_pretrained("resnet18", dataset, epochs=3, seed=0)
    return model, val


@pytest.fixture(scope="session")
def resnet50_model(dataset):
    """The deeper CNN (scaled ResNet50 analogue) used by Fig. 7/9."""
    model, val = get_pretrained("resnet50", dataset, epochs=3, seed=0)
    return model, val


@pytest.fixture(scope="session")
def deit(dataset):
    """The transformer under study (scaled DeiT analogue), trained and cached."""
    model, val = get_pretrained("deit_tiny", dataset, epochs=8, seed=0)
    return model, val


@pytest.fixture(scope="session")
def batch(resnet):
    """A fixed batch of 32 validation images (the paper's flat batch size)."""
    _, (images, labels) = resnet
    return images[:32], labels[:32]


def print_block(text: str) -> None:
    """Print a report block, visibly separated in pytest output."""
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)


def timed_campaign(ge, images, labels, **kwargs) -> dict:
    """One ``run_campaign`` call: its wall time, injection count,
    throughput, injection-weighted SDC rate and the result itself."""
    start = time.perf_counter()
    result = run_campaign(ge, images, labels, **kwargs)
    wall = time.perf_counter() - start
    layers = result.per_layer.values()
    total = sum(r.injections for r in layers)
    sdc = sum(r.sdc_rate * r.injections for r in layers)
    return {"wall_s": wall, "injections": total,
            "injections_per_sec": total / wall if wall > 0 else 0.0,
            "sdc_rate": sdc / total if total else 0.0, "result": result}


def assert_bit_identical(serial, run, context) -> None:
    """``run`` (a :func:`timed_campaign`) completed and aggregates bit for
    bit like the ``serial`` :class:`~repro.core.campaign.CampaignResult`."""
    result = run["result"]
    assert not result.interrupted and not result.quarantined, context
    assert result.per_layer.keys() == serial.per_layer.keys(), context
    for layer in serial.per_layer:
        assert result.per_layer[layer].delta_losses == \
            serial.per_layer[layer].delta_losses, (context, layer)
        assert result.per_layer[layer].mismatch_rate == \
            serial.per_layer[layer].mismatch_rate, (context, layer)
        assert result.per_layer[layer].sdc_rate == \
            serial.per_layer[layer].sdc_rate, (context, layer)
