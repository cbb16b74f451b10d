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
    "check_labels",
    "softmax_probs",
    "cross_entropy_values",
    "mismatch_count",
    "mismatch_rate",
    "delta_loss",
    "sdc_classify",
    "InferenceOutcome",
    "compare_outcomes",
]


def check_labels(images, labels) -> None:
    """Raise ``ValueError`` unless ``labels`` is one label per image.

    ``images`` must be a non-empty batch ``(B, ...)`` and ``labels`` of
    shape ``(B,)``: a ``(B, 1)`` label column would broadcast against the
    ``(B,)`` predictions into a ``(B, B)`` comparison and score nonsense.
    """
    image_shape, label_shape = np.shape(images), np.shape(labels)
    if not image_shape or not image_shape[0] or label_shape != image_shape[:1]:
        raise ValueError(
            f"labels of shape {label_shape} do not fit images of shape "
            f"{image_shape}: need a non-empty batch and one label per image")


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
    loss contribution rather than propagating NaN into campaign averages:
    logits holding one are clipped to ±1e4, with NaN as -1e4.

    ``logits`` may also stack K runs of the batch, ``(K, B, C)``.  Each
    lane then gets the values it gets on its own: only a lane holding a
    non-finite logit is clipped, never a finite lane beside it.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    finite = np.isfinite(logits)
    if not finite.all():
        big = 1e4
        clipped = np.clip(np.where(np.isnan(logits), -big, logits), -big, big)
        dirty = ~finite.all(axis=(-2, -1), keepdims=True)
        logits = np.where(dirty, clipped, logits)
    # softmax_probs on finite logits, with only the picked entries divided:
    # its non-finite branch and zero-denominator guard cannot fire here
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    picked = e[..., np.arange(len(labels)), labels] / e.sum(axis=-1)
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
    counts = _classify(np.asarray(golden_logits).argmax(axis=-1),
                       _predictions(faulty), _all_nan_rows(faulty),
                       np.asarray(labels))
    return {key: int(count) for key, count in counts.items()}


def _predictions(logits: np.ndarray) -> np.ndarray:
    """Per-sample argmax with NaN logits treated as ``-inf``.

    ``±inf`` logits count as the dtype's ±largest finite value, which
    decides ties: a row ``[NaN, -inf]`` predicts class 1.
    """
    logits = np.asarray(logits)
    if np.isfinite(logits).all():
        return logits.argmax(axis=-1)
    with np.errstate(invalid="ignore"):
        return np.nan_to_num(logits, nan=-np.inf).argmax(axis=-1)


def _all_nan_rows(logits: np.ndarray) -> np.ndarray:
    return np.isnan(logits.astype(np.float64, copy=False)).all(axis=-1)


def _classify(golden_pred, faulty_pred, all_nan, labels) -> dict:
    """Outcome counts over the last axis: one per lane of a stack."""
    changed = (golden_pred != faulty_pred) | all_nan
    correct = (faulty_pred == labels) & ~all_nan
    return {
        "masked": np.count_nonzero(~changed, axis=-1),
        "sdc": np.count_nonzero(changed & ~correct, axis=-1),
        "benign_flip": np.count_nonzero(changed & correct, axis=-1),
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
        hits = self.predictions == self.labels
        return np.count_nonzero(hits) / hits.size  # np.mean, bit for bit

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.losses))


def compare_outcomes(golden: InferenceOutcome, faulty: InferenceOutcome) -> dict:
    """All supported metrics between a golden and a faulty run.

    Equal to combining :func:`sdc_classify` and :func:`delta_loss` on the
    logits, with the golden side's terms taken from its cache.  The faulty
    outcome is scored against the golden labels.

    ``faulty.logits`` may instead stack K faulty runs of the golden batch
    along a new leading axis (one *lane* per fault, as a fault-axis batched
    pass returns them).  All lanes are scored in one pass, and every value
    but ``golden_accuracy`` becomes a length-K array whose entry ``k`` is,
    bit for bit, what scoring lane ``k`` alone returns.
    """
    logits = np.asarray(faulty.logits)
    stacked = logits.ndim == np.ndim(golden.logits) + 1
    lanes = logits if stacked else logits[None]
    labels = np.asarray(golden.labels)
    predictions = _predictions(lanes)
    counts = _classify(golden.raw_argmax, predictions, _all_nan_rows(lanes),
                       labels)
    mismatches = counts["sdc"] + counts["benign_flip"]
    gaps = np.abs(cross_entropy_values(lanes, labels) - golden.losses)
    total = len(labels)
    values = {
        "mismatches": mismatches.astype(np.float64),
        "mismatch_rate": mismatches / total,
        "delta_loss": gaps.sum(axis=-1) / total,  # np.mean, bit for bit
        "sdc_rate": counts["sdc"] / total,
        "faulty_accuracy": np.count_nonzero(predictions == labels,
                                            axis=-1) / total,
    }
    if not stacked:
        values = {key: float(value[0]) for key, value in values.items()}
    values["golden_accuracy"] = golden.accuracy
    return values
