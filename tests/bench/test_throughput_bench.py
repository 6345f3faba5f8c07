"""The simulator-throughput benchmark: determinism and fusion coverage."""

from repro.bench.throughput import Shape, run_throughput_bench

# Scaled-down shapes so the smoke test stays fast; same three regimes
# (a striped command is 256 pages, as in SHAPES: four stripes per channel).
SMALL_SHAPES = {
    "point": Shape(pages=1, commands=24, workers=2, coalesce_limit=8),
    "striped": Shape(pages=256, commands=2, workers=2, coalesce_limit=8),
    "saturation": Shape(pages=512, commands=2, workers=2, coalesce_limit=32),
}


def test_arms_are_bit_identical_and_fusion_engages():
    # run_throughput_bench raises if a shape's arms diverge in time or bytes.
    report = run_throughput_bench(SMALL_SHAPES)
    for name, shape in report["shapes"].items():
        if name == "point":
            # One-page commands never fuse: both arms step the same events.
            assert shape["events_fast"] == shape["events_slow"]
            assert shape["fused_pages"] == 0
            continue
        assert shape["events_fast"] < shape["events_slow"], name
        assert shape["fused_pages"] > 0, name
    saturation = report["shapes"]["saturation"]
    assert saturation["event_reduction"] >= 5.0
    assert saturation["timing_cache_hits"] > 0


def test_deterministic_section_reproduces_exactly():
    first = run_throughput_bench(SMALL_SHAPES)
    second = run_throughput_bench(SMALL_SHAPES)
    # Every number is simulated: nothing in the report may differ between
    # runs (make results-check diffs a fresh run against the committed one).
    assert first == second
    assert set(first) == {"shapes"}
