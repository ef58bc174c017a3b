from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from rescuemap import (
    ConfusionMatrix,
    CorpusFormatError,
    LabelledTweet,
    Verdict,
    classify,
    compute_metrics,
    evaluate,
    extract_features,
    load_labelled,
)


def write_corpus(tmp_path, rows, header="id,text,label"):
    path = tmp_path / "corpus.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestLoadLabelled:
    def test_three_rows(self, tmp_path):
        path = write_corpus(
            tmp_path,
            ['a,"Please help",1', 'b,"nice day",0', 'c,"stuck at 1 Main St #Harvey",1'],
        )
        rows = load_labelled(path)
        assert len(rows) == 3
        assert rows[0].label is True
        assert rows[1].label is False

    def test_bad_label_is_fatal_and_names_the_row(self, tmp_path):
        path = write_corpus(tmp_path, ['a,"x",1', 'b,"y",2'])
        with pytest.raises(CorpusFormatError, match="row 3"):
            load_labelled(path)

    def test_embedded_newline_with_quotes_loads_intact(self, tmp_path):
        path = write_corpus(tmp_path, ['a,"line one\nline two",0'])
        rows = load_labelled(path)
        assert rows[0].text == "line one\nline two"

    def test_missing_header_column_is_fatal(self, tmp_path):
        path = write_corpus(tmp_path, ["a,hello"], header="id,text")
        with pytest.raises(CorpusFormatError, match="header"):
            load_labelled(path)

    def test_other_columns_are_ignored(self, tmp_path, lex):
        rows = ['a,"Please help, stuck at 4055 Braeswood Blvd",1', 'b,"nice day #Harvey",0']
        plain = load_labelled(write_corpus(tmp_path, rows))
        wide = tmp_path / "wide.csv"
        wide.write_text(
            "hashtags,id,text,source,label\n"
            '#Harvey houstonflood,a,"Please help, stuck at 4055 Braeswood Blvd",web,1\n'
            ',b,"nice day #Harvey",,0\n',
            encoding="utf-8",
        )
        assert load_labelled(wide) == plain
        assert evaluate(load_labelled(wide), lex) == evaluate(plain, lex)


def labelled(text: str, label: bool, tweet_id="t") -> LabelledTweet:
    return LabelledTweet(tweet_id, text, label)


class TestEvaluate:
    def test_single_true_positive(self, lex):
        corpus = [labelled("Please help, stuck at 4055 Braeswood Blvd #HoustonFlood", True)]
        assert evaluate(corpus, lex) == ConfusionMatrix(tp=1, fp=0, fn=0, tn=0)

    def test_empty_corpus_rejected(self, lex):
        with pytest.raises(ValueError):
            evaluate([], lex)

    def test_address_free_request_counts_as_false_negative(self, lex):
        text = (
            "@KPRC2 there are stranded families at Creech Elementary on Mason Rd. "
            "You have boats nearby. Please send them!"
        )
        corpus = [labelled(text, True)]
        assert evaluate(corpus, lex) == ConfusionMatrix(tp=0, fp=0, fn=1, tn=0)

    def test_matrix_matches_hand_tally_on_ten_texts(self, lex):
        # Hand-computed: for each text, the expected verdict and the label.
        cases = [
            ("Please help, 2 kids at 4055 Braeswood Blvd #HoustonFlood", True, True),
            ("Need a boat at 1108 Highway 7 #Harvey", True, True),
            ("trapped on the rooftop at 123 Ave. G #HoustonFlood", True, True),
            ("stranded at Creech Elementary on Mason Rd, please help", True, False),
            ("We are offering shelter at 2100 Main St #Harvey", False, False),
            ("Breaking news: flooding in Houston", False, False),
            ("Rescued! all safe now at 12 Oak St #Harvey", False, False),
            ("The administration flood policy failed #Harvey", False, False),
            ("nice quiet day in the suburbs", False, False),
            ("Remembering being stuck at 808 Travis St during the 2015 flood #Houston", False, True),
        ]
        corpus = [labelled(text, label, f"t{i}") for i, (text, label, _) in enumerate(cases)]
        # Independent tally from the per-case expected verdicts:
        tp = sum(1 for _, label, predicted in cases if label and predicted)
        fp = sum(1 for _, label, predicted in cases if not label and predicted)
        fn = sum(1 for _, label, predicted in cases if label and not predicted)
        tn = sum(1 for _, label, predicted in cases if not label and not predicted)
        assert evaluate(corpus, lex) == ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)

    def test_matrix_total_equals_corpus_size(self, lex, data_dir):
        corpus = load_labelled(data_dir / "labelled_corpus.csv")
        matrix = evaluate(corpus, lex)
        assert matrix.total == len(corpus) >= 200


class TestComputeMetrics:
    def test_reference_matrix(self):
        # Independently recomputed from the ratio definitions:
        # 228/251, 5475/5541, 228/294, 456/545, and the MCC quotient.
        metrics = compute_metrics(ConfusionMatrix(tp=228, fp=66, fn=23, tn=5475))
        assert metrics.sensitivity == pytest.approx(0.9083665, abs=1e-6)
        assert metrics.specificity == pytest.approx(0.9880888, abs=1e-6)
        assert metrics.precision == pytest.approx(0.7755102, abs=1e-6)
        assert metrics.f1 == pytest.approx(0.8366972, abs=1e-6)
        assert metrics.mcc == pytest.approx(0.8315408, abs=1e-6)
        assert metrics.degenerate == ()

    def test_perfect_classifier(self):
        metrics = compute_metrics(ConfusionMatrix(tp=1, fp=0, fn=0, tn=1))
        assert (
            metrics.sensitivity
            == metrics.specificity
            == metrics.precision
            == metrics.mcc
            == metrics.f1
            == 1.0
        )

    def test_all_false_negatives_degenerates(self):
        metrics = compute_metrics(ConfusionMatrix(tp=0, fp=0, fn=5, tn=0))
        assert metrics.sensitivity == 0.0
        assert "sensitivity" not in metrics.degenerate
        for name in ("specificity", "precision", "mcc", "f1"):
            assert name in metrics.degenerate
            assert getattr(metrics, name) == 0.0

    def test_all_zero_matrix_is_an_error(self):
        with pytest.raises(ValueError):
            compute_metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)

    @given(
        tp=st.integers(0, 500), fp=st.integers(0, 500),
        fn=st.integers(0, 500), tn=st.integers(0, 500),
        k=st.integers(1, 9),
    )
    def test_scale_invariance(self, tp, fp, fn, tn, k):
        if tp + fp + fn + tn == 0:
            return
        base = compute_metrics(ConfusionMatrix(tp, fp, fn, tn))
        scaled = compute_metrics(ConfusionMatrix(k * tp, k * fp, k * fn, k * tn))
        for name in ("sensitivity", "specificity", "precision", "f1", "mcc"):
            assert getattr(base, name) == pytest.approx(getattr(scaled, name), abs=1e-12)

    @given(
        tp=st.integers(0, 500), fp=st.integers(0, 500),
        fn=st.integers(0, 500), tn=st.integers(0, 500),
    )
    def test_mcc_bounds_and_negation_under_prediction_swap(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        metrics = compute_metrics(ConfusionMatrix(tp, fp, fn, tn))
        assert -1.0 <= metrics.mcc <= 1.0
        swapped = compute_metrics(ConfusionMatrix(tp=fn, fp=tn, fn=tp, tn=fp))
        assert swapped.mcc == pytest.approx(-metrics.mcc, abs=1e-12)

    @given(
        outcomes=st.lists(
            st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=300
        )
    )
    def test_formulas_agree_with_per_record_tally(self, outcomes):
        # Brute-force oracle: tally per-record (predicted, actual) outcomes
        # and recompute every metric from first principles.
        tp = sum(1 for p, a in outcomes if p and a)
        fp = sum(1 for p, a in outcomes if p and not a)
        fn = sum(1 for p, a in outcomes if not p and a)
        tn = sum(1 for p, a in outcomes if not p and not a)
        metrics = compute_metrics(ConfusionMatrix(tp, fp, fn, tn))
        if tp + fn:
            assert abs(metrics.sensitivity - tp / (tp + fn)) < 1e-12
        if tn + fp:
            assert abs(metrics.specificity - tn / (tn + fp)) < 1e-12
        if tp + fp:
            assert abs(metrics.precision - tp / (tp + fp)) < 1e-12
        if 2 * tp + fp + fn:
            assert abs(metrics.f1 - 2 * tp / (2 * tp + fp + fn)) < 1e-12
        denominator = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
        if denominator:
            assert abs(metrics.mcc - (tp * tn - fp * fn) / denominator) < 1e-12
