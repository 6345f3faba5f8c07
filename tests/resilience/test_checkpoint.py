"""The checkpoint ledger: exactly-once row accounting across retries."""

import pytest

from repro.db.ndp import page_ranges
from repro.resilience.checkpoint import RangeCheckpoint, ScanCheckpoint


# ------------------------------------------------------------ range ledger
def test_stage_is_invisible_until_committed():
    ledger = RangeCheckpoint(0, 8)
    ledger.stage([(1,), (2,)])
    assert ledger.rows == []
    assert ledger.committed_page == 0
    ledger.commit(4)
    assert ledger.rows == [(1,), (2,)]
    assert ledger.committed_page == 4
    assert not ledger.done


def test_abort_drops_only_staged_rows():
    ledger = RangeCheckpoint(0, 8)
    ledger.stage([(1,)])
    ledger.commit(4)
    ledger.stage([(2,), (3,)])  # uncommitted when the attempt dies
    assert ledger.abort() == 2
    assert ledger.rows == [(1,)]
    assert ledger.committed_page == 4  # resume point survives the abort


def test_marker_cannot_move_backwards_or_past_the_range():
    ledger = RangeCheckpoint(2, 6)
    ledger.commit(4)
    with pytest.raises(ValueError):
        ledger.commit(3)  # backwards
    with pytest.raises(ValueError):
        ledger.commit(7)  # past end_page
    ledger.commit(6)
    assert ledger.done


def test_inverted_range_rejected():
    with pytest.raises(ValueError):
        RangeCheckpoint(5, 4)


def test_clone_is_independent():
    ledger = RangeCheckpoint(0, 8)
    ledger.stage([(1,)])
    ledger.commit(2)
    twin = ledger.clone()
    twin.stage([(2,)])
    twin.commit(8)
    # Staged rows are attempt-local: a clone starts with an empty stage.
    assert ledger.rows == [(1,)]
    assert ledger.committed_page == 2
    assert twin.rows == [(1,), (2,)]
    assert twin.done


# ------------------------------------------------------------- scan ledger
def test_for_pages_covers_every_page_exactly_once():
    for num_pages in (1, 2, 7, 8, 64):
        for workers in (1, 2, 3, 8):
            ckpt = ScanCheckpoint.for_pages(num_pages, workers)
            covered = []
            for r in ckpt.ranges:
                covered.extend(range(r.first_page, r.end_page))
            assert covered == list(range(num_pages)), (num_pages, workers)


def test_for_pages_is_the_ndp_scans_worker_split():
    for num_pages in range(0, 200):
        for workers in range(-1, 40):
            ledger = ScanCheckpoint.for_pages(num_pages, workers)
            assert [(r.first_page, r.end_page - r.first_page)
                    for r in ledger.ranges] == page_ranges(num_pages, workers)


def test_for_pages_never_exceeds_pages_or_drops_workers_to_zero():
    ckpt = ScanCheckpoint.for_pages(3, 8)
    assert len(ckpt.ranges) <= 3
    ckpt = ScanCheckpoint.for_pages(5, 0)
    assert len(ckpt.ranges) == 1


def test_pending_and_done_track_commits():
    ckpt = ScanCheckpoint.for_pages(8, 2)
    assert ckpt.pending() == [0, 1]
    ckpt.stage(0, [(1,)])
    ckpt.commit(0, ckpt.ranges[0].end_page)
    assert ckpt.pending() == [1]
    assert not ckpt.done
    ckpt.commit(1, ckpt.ranges[1].end_page)
    assert ckpt.done
    assert ckpt.commits == 2
    assert ckpt.collect() == [(1,)]


def test_collect_is_range_major():
    ckpt = ScanCheckpoint([(0, 2), (2, 4)])
    ckpt.stage(1, [("late",)])
    ckpt.commit(1, 4)
    ckpt.stage(0, [("early",)])
    ckpt.commit(0, 2)
    # Commit order does not matter: rows come back in range order.
    assert ckpt.collect() == [("early",), ("late",)]


def test_adopt_replaces_state_with_the_winning_clone():
    base = ScanCheckpoint.for_pages(8, 2)
    winner = base.clone()
    winner.stage(0, [(1,)])
    winner.commit(0, winner.ranges[0].end_page)
    loser = base.clone()
    loser.stage(0, [("wrong",)])
    base.adopt(winner)
    assert base.collect() == [(1,)]
    assert base.commits == 1
    # The losing clone's staged rows never reach the adopted ledger.
    loser.abort()
    assert base.collect() == [(1,)]


def test_abort_counts_dropped_rows_across_ranges():
    ckpt = ScanCheckpoint([(0, 2), (2, 4)])
    ckpt.stage(0, [(1,), (2,)])
    ckpt.stage(1, [(3,)])
    ckpt.abort()
    assert ckpt.aborted_rows == 3
    assert ckpt.collect() == []
