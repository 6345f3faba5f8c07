"""Scale-up (Fig. 1(b)): sharded NDP search across 1-8 SSDs.

Extension experiment (Sections II-A and VI): with a software-defined
file-per-SSD data layout, Biscuit's aggregate filtering throughput scales
linearly with the number of devices, while the Conv path saturates at the
shared PCIe fabric / host scan rate — "the gap can grow if there are many
SSDs on a switched PCIe fabric".
"""

from repro.apps.sharded_search import (
    install_sharded_weblog,
    run_biscuit_sharded,
    run_conv_sharded,
)
from repro.bench.harness import ExperimentResult, save_result
from repro.host.platform import System
from repro.sim.units import MIB

SHARD_BYTES = 192 * MIB
FABRIC_BYTES_PER_SEC = 3.2e9  # one switch uplink shared by all SSDs


def run_scaleup():
    rows = []
    metrics = {}
    for num_ssds in (1, 2, 4, 8):
        system = System(num_ssds=num_ssds,
                        fabric_bytes_per_sec=FABRIC_BYTES_PER_SEC)
        total = SHARD_BYTES * num_ssds
        install_sharded_weblog(system, total, "KEY")
        _, conv_s = run_conv_sharded(system, "KEY")
        _, biscuit_s = run_biscuit_sharded(system, "KEY")
        conv_gbps = total / conv_s / 1e9
        biscuit_gbps = total / biscuit_s / 1e9
        rows.append([num_ssds, round(conv_gbps, 2), round(biscuit_gbps, 2),
                     round(conv_s / biscuit_s, 1)])
        metrics["conv_gbps_%d" % num_ssds] = conv_gbps
        metrics["biscuit_gbps_%d" % num_ssds] = biscuit_gbps
    return ExperimentResult(
        "Scale-up", "Sharded string-search throughput vs #SSDs "
        "(shared %.1f GB/s fabric)" % (FABRIC_BYTES_PER_SEC / 1e9),
        ["#SSDs", "Conv GB/s", "Biscuit GB/s", "speed-up"],
        rows,
        metrics=metrics,
    )


def test_scaleup_multi_ssd(once):
    result = once(run_scaleup)
    print()
    print(result.format())
    save_result(result, "scaleup_multi_ssd")
    m = result.metrics
    # Biscuit filtering scales with devices (within 25% of linear at x8).
    assert m["biscuit_gbps_8"] > 6.0 * m["biscuit_gbps_1"]
    # Conv saturates at the shared fabric uplink.
    assert m["conv_gbps_8"] <= FABRIC_BYTES_PER_SEC / 1e9 * 1.05
    # The NDP advantage widens with scale.
    gain_1 = m["biscuit_gbps_1"] / m["conv_gbps_1"]
    gain_8 = m["biscuit_gbps_8"] / m["conv_gbps_8"]
    assert gain_8 > 1.5 * gain_1
