"""Biscuit engines on one System share the device's one NDP module copy."""

from repro.core import SSD
from repro.db.executor import ExecutionMode
from repro.db.planner import create_engine
from repro.db.tpch.datagen import load_tpch
from repro.db.tpch.queries import run_query
from repro.host.platform import System
from repro.testing import device_residue

CYCLE_SF = 0.0005  # Q6 still offloads; a cycle costs about 12 ms


def test_engine_cycles_hold_one_module_and_a_flat_heap():
    """200 cycles of "build a Biscuit engine, run Q6": every engine holds
    the one copy, so one module stays loaded and the system heap stays at
    its first cycle's level (one copy per engine would exhaust the 64 MiB
    heap after about 680 engines)."""
    system = System()
    db = load_tpch(system.fs, CYCLE_SF)
    runtime = SSD(system).runtime
    heap = []
    for _ in range(200):
        engine = create_engine(system, db, ExecutionMode.BISCUIT)
        run_query(engine, 6)
        assert engine.ndp_scans == 1
        heap.append(runtime.allocators.system.used)
    assert len(runtime.loaded_modules) == 1
    assert heap[-1] == heap[0]
    assert device_residue(system) == []
