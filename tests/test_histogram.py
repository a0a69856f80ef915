import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfit import ParseError, RankHistogram, SummaryStats, parse_dataset, summarize


def test_parse_assigns_ranks_by_descending_frequency_with_tie_warning():
    text = "nAND\t182\nx\t90\ny\t90\n"
    h = parse_dataset(text)
    assert h.names == ("nAND", "x", "y")
    assert h.entries == ((1, 182.0), (2, 90.0), (3, 90.0))
    assert any("tie" in w for w in h.warnings)
    assert any("'x'" in w and "'y'" in w for w in h.warnings)


def test_parse_single_record():
    h = parse_dataset("a\t5\n")
    assert h.entries == ((1, 5.0),)
    assert h.r_max == 1


def test_parse_strictly_decreasing_has_no_warnings():
    lines = "\n".join(f"w{i}\t{1000 - 10 * i}" for i in range(24))
    h = parse_dataset(lines)
    assert h.r_max == 24
    assert h.warnings == ()
    assert h.frequencies == tuple(float(1000 - 10 * i) for i in range(24))


def test_parse_skips_canonical_header():
    h = parse_dataset("label\tfrequency\na\t3\nb\t1\n")
    assert h.names == ("a", "b")


def test_parse_drops_zero_frequency_with_warning():
    h = parse_dataset("a\t5\nb\t0\nc\t2\n")
    assert h.names == ("a", "c")
    assert any("zero-frequency" in w and "'b'" in w for w in h.warnings)


def test_parse_rejects_negative_frequency_with_record_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_dataset("a\t5\nb\t-2\n")


def test_parse_rejects_non_numeric_frequency():
    with pytest.raises(ParseError, match="line 3"):
        parse_dataset("label\tfrequency\na\t5\nb\tlots\n")


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError, match="empty"):
        parse_dataset("")
    with pytest.raises(ParseError, match="empty"):
        parse_dataset("label\tfrequency\n")


def test_parse_rejects_wrong_field_count_and_non_finite():
    with pytest.raises(ParseError, match="line 1"):
        parse_dataset("a\t1\t2\n")
    with pytest.raises(ParseError, match="non-finite"):
        parse_dataset("a\tinf\n")
    with pytest.raises(ParseError, match="non-finite"):
        parse_dataset("a\tnan\n")


def test_parse_custom_delimiter():
    h = parse_dataset("a,7\nb,3\n", delimiter=",")
    assert h.frequencies == (7.0, 3.0)


def test_parse_rejects_an_empty_delimiter_by_name():
    # str.split("") would raise its own "empty separator", naming no setting
    with pytest.raises(ValueError, match="^delimiter must not be empty$"):
        parse_dataset("a\t7\n", delimiter="")


def test_histogram_invariants_enforced():
    with pytest.raises(ValueError):
        RankHistogram(frequencies=(1.0, 2.0), names=("a", "b"))  # increasing
    with pytest.raises(ValueError):
        RankHistogram.from_frequencies([1.0, 0.0])  # zero frequency
    with pytest.raises(ValueError):
        RankHistogram.from_frequencies([])
    with pytest.raises(ValueError, match="one name per rank"):
        RankHistogram(frequencies=(2.0, 1.0), names=("a",))


@pytest.mark.parametrize("F0, F1, FlogR, r_max, named", [
    (0.0, 0.0, 0.0, 1, "0 < F0 <= F1 <= F0\\*r_max"),
    (10.0, 9.0, 1.0, 2, "0 < F0 <= F1 <= F0\\*r_max"),   # mean rank below 1
    (10.0, 31.0, 1.0, 3, "0 < F0 <= F1 <= F0\\*r_max"),  # mean rank above r_max
    (10.0, 15.0, -1.0, 2, "FlogR must be >= 0"),
    (10.0, 10.0, 0.5, 1, "zero iff r_max == 1"),
])
def test_summary_stats_reject_moments_no_histogram_has(F0, F1, FlogR, r_max, named):
    with pytest.raises(ValueError, match=named):
        SummaryStats(F0=F0, F1=F1, FlogR=FlogR, r_max=r_max)


def test_summarize_example():
    s = summarize(RankHistogram.from_frequencies([8, 4, 2, 1]))
    assert s.F0 == 15.0
    assert s.F1 == 26.0
    assert s.mean_rank == pytest.approx(26 / 15, abs=0)
    assert s.r_max == 4


def test_summarize_single_rank():
    s = summarize(RankHistogram.from_frequencies([7]))
    assert (s.F0, s.F1, s.mean_rank, s.FlogR, s.r_max) == (7.0, 7.0, 1.0, 0.0, 1)


def test_summarize_flogr():
    s = summarize(RankHistogram.from_frequencies([2, 1]))
    assert s.FlogR == pytest.approx(math.log(2), abs=1e-12)


def test_summary_json_keys():
    d = summarize(RankHistogram.from_frequencies([3, 1])).as_dict()
    assert set(d) == {"F0", "F1", "FlogR", "mean_rank", "r_max"}
    json.dumps(d)  # serializable


positive_freqs = st.lists(
    st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=24,
).map(lambda xs: sorted(xs, reverse=True))


@given(st.lists(st.integers(min_value=1, max_value=10 ** 6), min_size=1, max_size=24)
       .map(lambda xs: sorted(xs, reverse=True)))
def test_f0_exact_for_integer_inputs(freqs):
    h = RankHistogram.from_frequencies(freqs)
    assert summarize(h).F0 == float(sum(freqs))


@given(positive_freqs)
@settings(max_examples=50)
def test_canonical_round_trip(freqs):
    h = RankHistogram.from_frequencies(freqs)
    text = "label\tfrequency\n" + "".join(
        f"{name}\t{freq!r}\n" for name, freq in zip(h.names, h.frequencies))
    again = parse_dataset(text)
    assert again == h


def test_round_trip_preserves_real_frequencies():
    h = RankHistogram.from_frequencies([182.0, 90.25, 0.125])
    assert parse_dataset("label\tfrequency\nr1\t182\nr2\t90.25\nr3\t0.125\n") == h


@given(st.permutations(list(range(6))))
def test_line_permutation_only_reorders_tie_groups(order):
    base = [("a", 9), ("b", 7), ("c", 7), ("d", 7), ("e", 3), ("f", 1)]
    text = "\n".join(f"{n}\t{f}" for n, f in (base[i] for i in order))
    h = parse_dataset(text)
    ref = parse_dataset("\n".join(f"{n}\t{f}" for n, f in base))
    assert h.entries == ref.entries
    # names agree rank-by-rank outside tie groups, as sets within them
    groups = {}
    for (rank, freq), name in zip(h.entries, h.names):
        groups.setdefault(freq, set()).add(name)
    ref_groups = {}
    for (rank, freq), name in zip(ref.entries, ref.names):
        ref_groups.setdefault(freq, set()).add(name)
    assert groups == ref_groups
