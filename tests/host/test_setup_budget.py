"""Set-up budget: constructing a platform must not allocate per-page state.

Counted in GC-tracked objects, not seconds, so the bound holds on any
runner.  The eager FTL slot lists this guards against cost 1.06 M objects
per default ``System`` (8.46 M for the default cluster).
"""

import gc

from repro.host.platform import System
from repro.net.cluster import ScaleOutCluster


def objects_allocated(build):
    gc.collect()
    before = len(gc.get_objects())
    built = build()
    allocated = len(gc.get_objects()) - before
    del built
    return allocated


def test_default_system_allocates_under_20k_objects():
    assert objects_allocated(System) < 20_000


def test_default_cluster_allocates_under_200k_objects():
    # 4 nodes x 2 SSDs, the shape tests/net/test_cluster.py builds.
    assert objects_allocated(ScaleOutCluster) < 200_000
