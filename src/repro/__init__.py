"""Biscuit (ISCA 2016) reproduction: a near-data processing framework for SSDs.

The package is organized bottom-up:

* :mod:`repro.sim` — discrete-event simulation kernel (fibers, queues, clock).
* :mod:`repro.ssd` — the SSD device model: NAND timing, FTL, controller,
  per-channel hardware pattern matcher, NVMe host interface.
* :mod:`repro.fs` — extent-based filesystem over the SSD's logical blocks.
* :mod:`repro.host` — host CPU/memory model and the Conv/Biscuit platforms.
* :mod:`repro.core` — the Biscuit framework itself: SSDlets, typed ports,
  applications, channel managers, the device runtime.
* :mod:`repro.db` — MiniDB, a relational engine with an NDP-offloading
  planner, plus TPC-H schema/data/queries.
* :mod:`repro.apps` — the paper's applications: wordcount, pointer chasing,
  string search (Section V-C's StreamBench load is ``System(background_threads=)``).
* :mod:`repro.power` — power/energy accounting.
* :mod:`repro.bench` — experiment harness reproducing every paper table and
  figure.
"""

__version__ = "1.0.0"
