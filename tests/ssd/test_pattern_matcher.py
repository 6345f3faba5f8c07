"""Pattern matcher IP: key limits, exact matching, analytic determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.config import SSDConfig
from repro.ssd.pattern_matcher import KeyError16, MatchResult, PatternMatcher


def matcher():
    return PatternMatcher(SSDConfig(), channel_index=0)


# ---------------------------------------------------------------- key limits
def test_at_most_three_keys():
    with pytest.raises(KeyError16):
        matcher().validate_keys([b"a", b"b", b"c", b"d"])


def test_key_length_limit_16_bytes():
    matcher().validate_keys([b"x" * 16])  # exactly at the limit
    with pytest.raises(KeyError16):
        matcher().validate_keys([b"x" * 17])


def test_empty_key_rejected():
    with pytest.raises(KeyError16):
        matcher().validate_keys([b""])


def test_no_keys_rejected():
    with pytest.raises(KeyError16):
        matcher().validate_keys([])


def test_non_bytes_key_rejected():
    with pytest.raises(KeyError16):
        matcher().validate_keys(["string"])


# ---------------------------------------------------------------- exact mode
def test_exact_counts_occurrences():
    result = matcher().match_bytes(0, b"xx NEEDLE yy NEEDLE zz", [b"NEEDLE"])
    assert result.matched
    assert result.count(b"NEEDLE") == 2
    assert result.total_hits == 2


def test_exact_miss():
    result = matcher().match_bytes(3, b"nothing here", [b"NEEDLE"])
    assert not result.matched
    assert result.total_hits == 0
    assert result.page_index == 3


def test_exact_multiple_keys_or_semantics():
    result = matcher().match_bytes(0, b"alpha beta", [b"beta", b"gamma"])
    assert result.matched
    assert result.count(b"beta") == 1
    assert result.count(b"gamma") == 0


def test_exact_overlapping_occurrences():
    # bytes.count is non-overlapping — matches real scanners.
    result = matcher().match_bytes(0, b"aaaa", [b"aa"])
    assert result.count(b"aa") == 2


def test_scan_statistics():
    m = matcher()
    m.match_bytes(0, b"NEEDLE", [b"NEEDLE"])
    m.match_bytes(1, b"nope", [b"NEEDLE"])
    assert m.pages_scanned == 2
    assert m.pages_matched == 1


# ------------------------------------------------------------- analytic mode
def analytic(m, first, count, probabilities, seed=0, keys=(b"k",)):
    """The matched page indexes of one chunk."""
    return m.match_pages_analytic(first, count, list(keys), probabilities,
                                  seed=seed)[0]


def test_analytic_deterministic():
    m1, m2 = matcher(), matcher()
    assert analytic(m1, 0, 200, {b"k": 0.3}, seed=9) == \
        analytic(m2, 0, 200, {b"k": 0.3}, seed=9)


def test_analytic_rate_tracks_probability():
    m = matcher()
    hits = len(analytic(m, 0, 2000, {b"k": 0.25}, seed=1))
    assert 0.20 < hits / 2000 < 0.30
    assert m.pages_scanned == 2000
    assert m.pages_matched == hits


def test_analytic_zero_and_one():
    m = matcher()
    assert analytic(m, 0, 4, {b"k": 0.0}) == []
    assert analytic(m, 0, 4, {b"k": 1.0}) == [0, 1, 2, 3]


def test_analytic_unknown_key_never_matches():
    m = matcher()
    assert analytic(m, 0, 4, {}) == []


def test_analytic_chunk_decides_each_page_as_alone():
    """A page's verdict is a function of (seed, page, key), not of the chunk
    it is decided in: the pages one chunk matches are the pages matched when
    every page is decided by itself."""
    whole, single = matcher(), matcher()
    chunk = analytic(whole, 100, 300, {b"k": 0.2}, seed=3)
    alone = [index for index in range(100, 400)
             if analytic(single, index, 1, {b"k": 0.2}, seed=3)]
    assert chunk == alone
    assert whole.pages_scanned == single.pages_scanned == 300
    assert whole.pages_matched == single.pages_matched == len(chunk)


def test_analytic_verdicts_are_pinned():
    """Table V's rate on one 64 MiB log's pages: the blake2b verdicts that
    the per-page decision gave before chunks were decided in one call."""
    matched = analytic(matcher(), 0, 16384, {b"needle": 0.022}, seed=1,
                       keys=(b"needle",))
    assert len(matched) == 339
    assert matched[:6] == [98, 102, 197, 233, 334, 340]


def test_analytic_hits_count_each_matching_key():
    m = matcher()
    matched, hits = m.match_pages_analytic(
        0, 10, [b"a", b"b", b"c"], {b"a": 1.0, b"b": 1.0}, seed=0)
    assert matched == list(range(10))
    assert hits == 20
    with pytest.raises(KeyError16):
        m.match_pages_analytic(0, 10, [], {b"a": 1.0})


@settings(max_examples=30, deadline=None)
@given(
    page=st.integers(0, 10_000),
    low=st.floats(0.0, 0.5),
    delta=st.floats(0.0, 0.5),
)
def test_property_analytic_monotone_in_probability(page, low, delta):
    """If a page matches at probability p, it matches at any p' >= p."""
    m = matcher()
    high = min(1.0, low + delta)
    at_low = analytic(m, page, 1, {b"k": low}, seed=4)
    at_high = analytic(m, page, 1, {b"k": high}, seed=4)
    if at_low:
        assert at_high
