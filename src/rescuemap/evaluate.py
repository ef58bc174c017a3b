"""Evaluation harness: confusion matrix and derived metrics over a labelled corpus."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .address import detect_address
from .features import is_rescue_request
from .lexicons import LexiconConfig


class CorpusFormatError(ValueError):
    """Raised when a labelled-corpus file is malformed."""


@dataclass(frozen=True)
class LabelledTweet:
    id: str
    text: str
    label: bool  # True = rescue request


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    sensitivity: float
    specificity: float
    precision: float
    mcc: float
    f1: float
    degenerate: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return asdict(self)


def load_labelled(path: str | Path) -> list[LabelledTweet]:
    """Load a labelled CSV corpus with header columns id, text, label.

    ``label`` must be exactly 0 or 1. Other columns are ignored. Quoted
    fields may contain embedded newlines.
    """
    path = Path(path)
    try:
        content = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError:
        raise CorpusFormatError(f"{path}: not valid UTF-8") from None
    rows: list[LabelledTweet] = []
    reader = csv.DictReader(io.StringIO(content, newline=""))
    required = {"id", "text", "label"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise CorpusFormatError(f"{path}: header must contain columns {sorted(required)}")
    for i, row in enumerate(reader, start=2):
        raw_label = (row["label"] or "").strip()
        if raw_label not in ("0", "1"):
            raise CorpusFormatError(
                f"{path}: row {i}: label must be 0 or 1, got {raw_label!r}"
            )
        rows.append(LabelledTweet(str(row["id"]), row["text"] or "", raw_label == "1"))
    return rows


def evaluate(corpus: list[LabelledTweet], lex: LexiconConfig) -> ConfusionMatrix:
    """Tally the confusion matrix of the pipeline's verdict over every record."""
    if not corpus:
        raise ValueError("empty corpus")
    tp = fp = fn = tn = 0
    for item in corpus:
        text = item.text
        predicted = detect_address(text) is not None and is_rescue_request(text, lex)
        if predicted and item.label:
            tp += 1
        elif predicted and not item.label:
            fp += 1
        elif not predicted and item.label:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def compute_metrics(cm: ConfusionMatrix) -> Metrics:
    """Sensitivity, specificity, precision, MCC, and F1 from the matrix.

    A zero denominator yields 0.0 for that metric plus a degenerate flag.
    F1 is additionally flagged when precision or sensitivity is degenerate,
    since the harmonic mean is undefined there even though the count form
    2tp/(2tp+fp+fn) still evaluates.
    """
    if cm.total == 0:
        raise ValueError("all-zero confusion matrix")
    degenerate: list[str] = []

    def ratio(name: str, numerator: int, denominator: int) -> float:
        if denominator == 0:
            degenerate.append(name)
            return 0.0
        return numerator / denominator

    sensitivity = ratio("sensitivity", cm.tp, cm.tp + cm.fn)
    specificity = ratio("specificity", cm.tn, cm.tn + cm.fp)
    precision = ratio("precision", cm.tp, cm.tp + cm.fp)

    mcc_denominator_sq = (
        (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    )
    if mcc_denominator_sq == 0:
        degenerate.append("mcc")
        mcc = 0.0
    else:
        mcc = (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(mcc_denominator_sq)

    f1 = ratio("f1", 2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn)
    if "f1" not in degenerate and ("precision" in degenerate or "sensitivity" in degenerate):
        degenerate.append("f1")

    return Metrics(
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        mcc=mcc,
        f1=f1,
        degenerate=tuple(degenerate),
    )
