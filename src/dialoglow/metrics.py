"""Scoring over the four considered emotions.

Two headline numbers: weighted accuracy (WA) is plain accuracy over the
scored utterances, unweighted accuracy (UWA) is the mean of per-class
accuracies over the classes that actually appear in gold. Utterances
whose gold label falls outside the considered set are tallied as ignored
and contribute to neither score.
"""

from __future__ import annotations

import numpy as np

from .corpus import CONSIDERED_LABELS

N_CONSIDERED = len(CONSIDERED_LABELS)


class MetricsError(ValueError):
    """Raised when a score is requested for an empty or malformed tally."""


class ConfusionMatrix:
    """4x4 integer tally, rows = gold, columns = predicted."""

    def __init__(self, counts, ignored: int = 0):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (N_CONSIDERED, N_CONSIDERED):
            raise MetricsError(f"confusion counts must be 4x4, got {counts.shape}")
        if np.any(counts < 0) or ignored < 0:
            raise MetricsError("confusion counts must be non-negative")
        self.counts = counts
        self.ignored = int(ignored)

    @property
    def total(self) -> int:
        """Number of scored utterances (ignored ones excluded)."""
        return int(self.counts.sum())


def predict(logits) -> list[int]:
    """Predicted label indices: argmax over the considered columns only.

    The remaining classes carry zero loss weight during training, so their
    logits are untrained noise and never win.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < N_CONSIDERED:
        raise MetricsError(
            f"expected logits of shape (n, >={N_CONSIDERED}), got {arr.shape}"
        )
    return [int(i) for i in np.argmax(arr[:, :N_CONSIDERED], axis=1)]


def confusion(preds, golds) -> ConfusionMatrix:
    """Tally predicted against gold label indices (``LABEL_INDEX`` order).

    Gold labels outside the considered set only bump the ignored count;
    predictions must already be restricted to the considered range.
    """
    if len(preds) != len(golds):
        raise MetricsError(f"{len(preds)} predictions vs {len(golds)} gold labels")
    counts = np.zeros((N_CONSIDERED, N_CONSIDERED), dtype=np.int64)
    ignored = 0
    for p, g in zip(preds, golds):
        if not 0 <= p < N_CONSIDERED:
            raise MetricsError(f"prediction {p} outside the considered label range")
        if 0 <= g < N_CONSIDERED:
            counts[g, p] += 1
        else:
            ignored += 1
    return ConfusionMatrix(counts, ignored)


def wa(cm: ConfusionMatrix) -> float:
    """Weighted accuracy: per-class accuracies weighted by gold prevalence.

    The prevalence weights collapse the sum to trace/total.
    """
    if cm.total == 0:
        raise MetricsError("weighted accuracy over zero scored utterances")
    return float(np.trace(cm.counts)) / cm.total


def per_class_accuracy(cm: ConfusionMatrix) -> tuple:
    """Diagonal over row sum for each considered class, None when gold-absent."""
    out = []
    for i in range(N_CONSIDERED):
        row = int(cm.counts[i].sum())
        out.append(float(cm.counts[i, i]) / row if row else None)
    return tuple(out)


def uwa(cm: ConfusionMatrix) -> float:
    """Unweighted accuracy: plain mean over gold-present classes."""
    present = [a for a in per_class_accuracy(cm) if a is not None]
    if not present:
        raise MetricsError("unweighted accuracy over zero scored utterances")
    return sum(present) / len(present)


class EvalReport:
    """WA, UWA and the tally they came from, renderable as JSON or a table."""

    def __init__(self, counts: ConfusionMatrix):
        self.counts = counts
        self.wa = wa(counts)
        self.uwa = uwa(counts)
        self.per_class_acc = per_class_accuracy(counts)

    def to_json_dict(self) -> dict:
        per_class = {
            str(label): self.per_class_acc[i]
            for i, label in enumerate(CONSIDERED_LABELS)
        }
        return {
            "wa": self.wa,
            "uwa": self.uwa,
            "per_class": per_class,
            "confusion": self.counts.counts.tolist(),
            "ignored": self.counts.ignored,
        }

    def table(self) -> str:
        headers = ["WA", "UWA"] + [str(label).capitalize() for label in CONSIDERED_LABELS]
        cells = [pct(self.wa), pct(self.uwa)]
        cells += [pct(a) for a in self.per_class_acc]
        widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
        head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        body = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        return head + "\n" + body


def pct(fraction) -> str:
    """A fraction as a percentage with one decimal, "-" for None."""
    return "-" if fraction is None else f"{100.0 * fraction:.1f}"


def report(preds, golds) -> EvalReport:
    return EvalReport(confusion(preds, golds))
