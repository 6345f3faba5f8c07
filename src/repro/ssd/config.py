"""SSD configuration and timing calibration.

Every constant that the paper measures (or that a paper measurement pins
down) lives here, with the derivation recorded next to it.  The defaults make
the basic-performance experiments land on the paper's numbers *by
construction*; the application-level results then follow from the model
rather than from per-experiment tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.units import KIB, MIB

__all__ = ["SSDConfig"]


@dataclass
class SSDConfig:
    """Geometry and timing of the simulated SSD.

    Table I's device: 1 TB NVMe, two ARM Cortex-R7 cores at 750 MHz for
    Biscuit, 1 GiB DRAM, 2 MiB SRAM.  Only what the model computes with is
    a field (capacity follows from the geometry).

    Calibration (paper Table II/III, Fig. 7):

    * internal 4 KiB read = ``firmware_read_overhead_us`` (7.9) +
      ``nand_read_us`` (53.1) + 4 KiB / ``channel_bytes_per_sec`` (≈14.9 µs)
      ≈ 75.9 µs (Table III, Biscuit).
    * host 4 KiB read adds ``nvme_command_overhead_us`` (12.8) + 4 KiB /
      ``pcie_bytes_per_sec`` (≈1.2 µs) ≈ 90.0 µs (Table III, Conv).
    * internal sustained bandwidth = ``channels`` × ``channel_bytes_per_sec``
      = 16 × 275 MB/s ≈ 4.4 GB/s, >30 % above the 3.2 GB/s PCIe Gen.3 ×4 cap
      (Fig. 7).
    """

    # ------------------------------------------------------------------ geometry
    channels: int = 16
    dies_per_channel: int = 4
    logical_page_bytes: int = 4 * KIB  # FTL mapping unit
    physical_page_bytes: int = 16 * KIB  # NAND page (4 logical pages)
    pages_per_block: int = 256  # physical pages per erase block
    blocks_per_die: int = 64  # small by default; sized up by the FS as needed
    overprovision_ratio: float = 0.125

    # -------------------------------------------------------------- NAND timing
    nand_read_us: float = 52.6  # tR: media sense for one physical page
    nand_program_us: float = 660.0  # tPROG
    nand_erase_us: float = 3500.0  # tBERS
    channel_bytes_per_sec: float = 275e6  # channel bus sustained transfer rate

    # --------------------------------------------------- controller / firmware
    firmware_read_overhead_us: float = 7.9  # per-command FTL/dispatch cost
    firmware_write_overhead_us: float = 9.5
    # Read-retry policy: an ECC-failed sense is retried up to this many extra
    # times, waiting attempt * read_retry_backoff_us before each retry
    # (modeling read-retry voltage shifts on real NAND).
    read_retry_limit: int = 3
    read_retry_backoff_us: float = 40.0
    # Device-DRAM read cache (a slice of the 1 GiB controller DRAM staged in
    # front of the channels; see repro.ssd.cache).  Disabled by default so
    # the paper-calibrated latencies (Table III, Fig. 7) are measured cold.
    read_cache_bytes: int = 0  # 0 disables; line size = physical_page_bytes
    # DRAM access + DMA setup for one cached stripe, replacing tR plus the
    # channel-bus transfer on a hit.
    read_cache_hit_us: float = 2.0
    # Adjacent same-channel stripes of one read command are coalesced into a
    # multi-page channel command paying one STRIPE_DISPATCH_US (the NAND ops
    # still pipeline across dies).  1 disables coalescing.  Matcher-engaged
    # reads never coalesce: the IP is reconfigured per stripe.
    read_coalesce_limit: int = 8
    # Fused NAND fast path (repro.sim.fastpath): clean page reads on a
    # channel free of per-event traffic are scheduled in closed form and
    # retired through one event instead of ~6 per page.  False restores
    # event-per-op stepping.  The fastpath differential arm's windows and
    # the sim_throughput shapes time identically either way, but not every
    # arrival schedule does: benchmarks/e2e/README.md finding 4, pinned by
    # two strict xfails and open as ROADMAP item 1.
    sim_fast_path: bool = True
    device_cores: int = 2  # ARM Cortex R7 cores available to Biscuit (Table I)
    # Effective software data-processing rate of the device cores.  Two
    # Cortex-R7 @750 MHz scanning bytes in software: ~120 MB/s per core
    # (Section VI: software-only in-SSD scan cannot keep up, the HW IP can).
    device_scan_bytes_per_sec_per_core: float = 120e6

    # ------------------------------------------------------------ host interface
    pcie_bytes_per_sec: float = 3.2e9  # PCIe Gen.3 x4 payload cap (Table I)
    nvme_command_overhead_us: float = 12.8  # driver + protocol, per command
    nvme_queue_depth: int = 256

    # -------------------------------------------------------- pattern matcher IP
    matcher_max_keys: int = 3  # hardware limit (Section V-A)
    matcher_max_key_bytes: int = 16
    # The IP scans at channel wire speed (Section IV-A) but driving it costs
    # device-CPU time per striped command, which lowers the *effective* rate
    # to ~3.9 GB/s aggregate (Fig. 7, "matcher enabled" series).
    matcher_control_us_per_stripe: float = 7.9

    # ------------------------------------------------------------ Biscuit runtime
    # Fiber scheduling latency: visible alone in the inter-application port
    # round trip (Table II: 10.7 us).
    fiber_schedule_us: float = 10.7
    # Type abstraction/de-abstraction of inter-SSDlet ports (Table II:
    # 31.0 - 10.7 = 20.3 us).
    port_type_abstraction_us: float = 20.3
    # Host-to-device channel-manager costs (Table II: H2D 301.6, D2H 130.1).
    # The receiver side does ~2x the sender's work and the device CPU is far
    # slower than the host CPU, hence the asymmetry.
    h2d_host_sender_us: float = 25.0
    h2d_interface_us: float = 45.0
    h2d_device_receiver_us: float = 220.9
    d2h_device_sender_us: float = 55.0
    d2h_interface_us: float = 45.0
    d2h_host_receiver_us: float = 19.4
    channel_pool_size: int = 16

    # ----------------------------------------------------------------- memory
    dram_bytes: int = 1024 * MIB
    system_heap_bytes: int = 64 * MIB  # Biscuit system allocator arena
    user_heap_bytes: int = 256 * MIB  # user allocator arena (SSDlet-visible)

    # ------------------------------------------------------- module management
    module_load_us_per_kib: float = 18.0  # symbol relocation + copy-in
    module_fixed_load_us: float = 350.0

    # ------------------------------------------------------------------ serving
    # Admission-control budgets for the multi-tenant serving layer
    # (repro.serve).  A device accepts at most ``serve_app_slots`` concurrently
    # resident SSDlet applications (the paper's multi-tasking runtime shares
    # two cores, so a small multiple of ``device_cores`` keeps queueing visible
    # without thrashing) and at most ``serve_dram_budget_bytes`` of the user
    # arena reserved across admitted jobs.
    serve_app_slots: int = 4
    serve_dram_budget_bytes: int = 128 * MIB

    # ------------------------------------------------------------- derived
    @property
    def logical_pages_per_physical(self) -> int:
        return self.physical_page_bytes // self.logical_page_bytes

    @property
    def internal_bytes_per_sec(self) -> float:
        """Aggregate internal read bandwidth (all channels streaming)."""
        return self.channels * self.channel_bytes_per_sec

    @property
    def total_logical_pages(self) -> int:
        physical = (
            self.channels
            * self.dies_per_channel
            * self.blocks_per_die
            * self.pages_per_block
        )
        usable = int(physical * (1.0 - self.overprovision_ratio))
        return usable * self.logical_pages_per_physical

    @property
    def stripe_bytes(self) -> int:
        """Unit in which large requests are striped across channels."""
        return self.physical_page_bytes

    def validate(self) -> None:
        if self.physical_page_bytes % self.logical_page_bytes:
            raise ValueError("physical page must be a multiple of the logical page")
        if self.channels < 1 or self.dies_per_channel < 1:
            raise ValueError("need at least one channel and one die")
        if not 0.0 <= self.overprovision_ratio < 0.5:
            raise ValueError("overprovision_ratio out of range")
        if self.matcher_max_keys < 1:
            raise ValueError("pattern matcher needs at least one key slot")
        if self.read_retry_limit < 0:
            raise ValueError("read_retry_limit cannot be negative")
        if self.read_retry_backoff_us < 0:
            raise ValueError("read_retry_backoff_us cannot be negative")
        if self.read_cache_bytes < 0:
            raise ValueError("read_cache_bytes cannot be negative")
        if self.read_cache_bytes > self.dram_bytes:
            raise ValueError("read cache cannot exceed controller DRAM")
        if self.read_cache_hit_us < 0:
            raise ValueError("read_cache_hit_us cannot be negative")
        if self.read_coalesce_limit < 1:
            raise ValueError("read_coalesce_limit must be at least 1")
        if self.serve_app_slots < 1:
            raise ValueError("serve_app_slots must be at least 1")
        if self.serve_dram_budget_bytes < 0:
            raise ValueError("serve_dram_budget_bytes cannot be negative")
        if self.serve_dram_budget_bytes > self.user_heap_bytes:
            raise ValueError("serve_dram_budget_bytes cannot exceed user heap")
