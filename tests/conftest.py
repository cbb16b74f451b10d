"""Shared fixtures: a small deterministic dataset and a trained model.

Session-scoped so the (pure-numpy) training cost is paid once per test run.

Hypothesis profiles: ``dev`` (default) keeps the randomized search; ``ci``
derandomizes it so carry-style regressions fail loudly and reproducibly in
CI.  Select with ``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.data import SyntheticImageNet, make_splits, train
from repro.models import simple_cnn
from repro.obs import reset_registry

settings.register_profile("dev", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True,
                          max_examples=50, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def fresh_global_registry():
    """Isolate tests that exercise the process-wide registry (the one the
    core instruments, the profiler and numerics monitors book into)."""
    fresh = reset_registry()
    yield fresh
    reset_registry()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset():
    """A small but learnable synthetic dataset (6 classes, 32x32)."""
    return SyntheticImageNet(num_classes=6, num_samples=240, image_size=32, seed=7)


@pytest.fixture(scope="session")
def splits(small_dataset):
    return make_splits(small_dataset)


@pytest.fixture(scope="session")
def trained_model(splits):
    """A simple CNN trained well enough for format/injection experiments."""
    train_split, val_split = splits
    result = train(simple_cnn(num_classes=6, seed=0), train_split, val_split,
                   epochs=4, seed=0)
    assert result.val_accuracy > 0.5, (
        f"fixture model failed to train (val accuracy {result.val_accuracy})"
    )
    result.model.eval()
    return result.model


@pytest.fixture(scope="session")
def val_data(splits):
    return splits[1]


@pytest.fixture()
def val_batch(val_data):
    images, labels = val_data
    return images[:16], labels[:16]
