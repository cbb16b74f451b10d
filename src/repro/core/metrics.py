"""Resilience metrics: classic *mismatch* counting and the faster *ΔLoss*.

The paper adopts two metrics (§IV-C):

* **mismatch** — how many error-injected inferences changed the predicted
  class relative to the error-free inference [26];
* **ΔLoss** [25] — the average absolute difference of the cross-entropy loss
  between the faulty and error-free inferences.  Both converge to the same
  ranking, but ΔLoss converges asymptotically faster because it compares a
  continuous value instead of a binary outcome, which is what makes
  GoldenEye's fast injection campaigns possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "softmax_probs",
    "cross_entropy_values",
    "mismatch_count",
    "mismatch_rate",
    "delta_loss",
    "sdc_classify",
    "InferenceOutcome",
    "compare_outcomes",
]


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (batch, classes) logits array (stable).

    Non-finite logits — possible after an injected fault — are handled
    explicitly: a ``+inf`` entry saturates (it takes the row's probability
    mass, split evenly if several entries are ``+inf``) and ``NaN`` entries
    get probability zero, so downstream metrics never see NaN probabilities.
    """
    logits = np.asarray(logits, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        shifted = logits - logits.max(axis=-1, keepdims=True)
    if not np.isfinite(logits).all():
        # +inf - +inf = NaN: the saturated entry should dominate (shift 0);
        # a NaN logit should contribute nothing (shift -inf).
        shifted = np.where(np.isposinf(logits), 0.0, shifted)
        shifted = np.where(np.isnan(shifted), -np.inf, shifted)
    e = np.exp(shifted)
    denom = e.sum(axis=-1, keepdims=True)
    denom = np.where(denom == 0.0, 1.0, denom)  # all-NaN row -> all-zero probs
    return e / denom


def cross_entropy_values(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy loss values (the quantity behind ΔLoss).

    NaN/inf logits (possible after an injected fault) produce the maximal
    loss contribution rather than propagating NaN into campaign averages.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    finite = np.isfinite(logits)
    if not finite.all():
        # replace non-finite entries with the most pessimistic finite values
        big = 1e4
        logits = np.where(np.isnan(logits), -big, logits)
        logits = np.clip(logits, -big, big)
    probs = softmax_probs(logits)
    picked = probs[np.arange(len(labels)), labels]
    return -np.log(np.maximum(picked, 1e-300))


def mismatch_count(golden_logits: np.ndarray, faulty_logits: np.ndarray) -> int:
    """Number of samples whose argmax class changed between runs.

    A faulty row that is entirely NaN has no argmax at all — the output is
    unconditionally corrupted — so it always counts as a mismatch (previously
    the NaN→-inf substitution made argmax 0, silently masking the corruption
    whenever the golden prediction happened to be class 0).
    """
    golden = np.asarray(golden_logits)
    faulty = np.asarray(faulty_logits)
    if golden.shape != faulty.shape:
        raise ValueError(f"logit shapes differ: {golden.shape} vs {faulty.shape}")
    changed = golden.argmax(axis=-1) != _predictions(faulty)
    return int(np.count_nonzero(changed | _all_nan_rows(faulty)))


def mismatch_rate(golden_logits: np.ndarray, faulty_logits: np.ndarray) -> float:
    """Fraction of samples whose prediction changed."""
    n = len(np.asarray(golden_logits))
    if n == 0:
        raise ValueError("empty batch")
    return mismatch_count(golden_logits, faulty_logits) / n


def delta_loss(golden_logits: np.ndarray, faulty_logits: np.ndarray,
               labels: np.ndarray) -> float:
    """Mean |CE(faulty) - CE(golden)| over the batch — the ΔLoss metric [25]."""
    golden = cross_entropy_values(golden_logits, labels)
    faulty = cross_entropy_values(faulty_logits, labels)
    return float(np.mean(np.abs(faulty - golden)))


def sdc_classify(golden_logits: np.ndarray, faulty_logits: np.ndarray,
                 labels: np.ndarray) -> dict[str, int]:
    """Classify per-sample injection outcomes.

    Returns counts of:

    * ``masked`` — prediction unchanged;
    * ``sdc`` — prediction changed and is now wrong (silent data corruption);
    * ``benign_flip`` — prediction changed but happens to be correct now.

    An all-NaN faulty row has no prediction: it is always ``changed`` and
    never "correct", so it lands in ``sdc`` (matching :func:`mismatch_count`).
    """
    faulty = np.asarray(faulty_logits)
    return _classify(np.asarray(golden_logits).argmax(axis=-1),
                     _predictions(faulty), _all_nan_rows(faulty),
                     np.asarray(labels))


def _predictions(logits: np.ndarray) -> np.ndarray:
    """Per-sample argmax with NaN logits treated as ``-inf``."""
    with np.errstate(invalid="ignore"):
        return np.nan_to_num(logits, nan=-np.inf).argmax(axis=-1)


def _all_nan_rows(logits: np.ndarray) -> np.ndarray:
    return np.isnan(logits.astype(np.float64, copy=False)).all(axis=-1)


def _classify(golden_pred, faulty_pred, all_nan, labels) -> dict[str, int]:
    changed = (golden_pred != faulty_pred) | all_nan
    correct = (faulty_pred == labels) & ~all_nan
    return {
        "masked": int(np.count_nonzero(~changed)),
        "sdc": int(np.count_nonzero(changed & ~correct)),
        "benign_flip": int(np.count_nonzero(changed & correct)),
    }


@dataclass(frozen=True)
class InferenceOutcome:
    """Logits + labels of one inference run, ready for metric comparison.

    Derived per-sample terms are computed on first use and cached, so a
    golden outcome shared by every injection of a campaign pays for its
    argmax, losses and accuracy once.  The arrays must not be mutated.
    """

    logits: np.ndarray
    labels: np.ndarray

    @cached_property
    def predictions(self) -> np.ndarray:
        """Per-sample predicted class (NaN logits count as ``-inf``)."""
        return _predictions(self.logits)

    @cached_property
    def raw_argmax(self) -> np.ndarray:
        """Per-sample argmax of the logits as they are (a NaN wins)."""
        return np.asarray(self.logits).argmax(axis=-1)

    @cached_property
    def losses(self) -> np.ndarray:
        """Per-sample cross-entropy against ``labels``."""
        return cross_entropy_values(self.logits, self.labels)

    @cached_property
    def accuracy(self) -> float:
        return float(np.mean(self.predictions == self.labels))

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.losses))


def compare_outcomes(golden: InferenceOutcome, faulty: InferenceOutcome) -> dict[str, float]:
    """All supported metrics between a golden and a faulty run.

    Equal to combining :func:`sdc_classify` and :func:`delta_loss` on the
    logits, with the golden side's terms taken from its cache.  The faulty
    outcome is scored against the golden labels.
    """
    faulty_logits = np.asarray(faulty.logits)
    counts = _classify(golden.raw_argmax, faulty.predictions,
                       _all_nan_rows(faulty_logits), np.asarray(golden.labels))
    faulty_losses = cross_entropy_values(faulty_logits, golden.labels)
    total = len(golden.labels)
    return {
        "mismatches": float(counts["sdc"] + counts["benign_flip"]),
        "mismatch_rate": (counts["sdc"] + counts["benign_flip"]) / total,
        "delta_loss": float(np.mean(np.abs(faulty_losses - golden.losses))),
        "sdc_rate": counts["sdc"] / total,
        "faulty_accuracy": faulty.accuracy,
        "golden_accuracy": golden.accuracy,
    }
