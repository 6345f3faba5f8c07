"""Scheduler policies: ordering, fairness, determinism."""

import pytest

from repro.serve.jobs import Job, JobSpec
from repro.serve.scheduler import (
    FIFOScheduler,
    WFQScheduler,
    make_scheduler,
)
from repro.sim.engine import Simulator


def make_job(sim, tenant="t", cost=1.0):
    spec = JobSpec(tenant=tenant, kind="string_search", cost=cost)
    return Job(spec, sim, submit_ns=0)


def drain(sched):
    order = []
    while len(sched):
        order.append(sched.pop())
    return order


# ----------------------------------------------------------------------- FIFO
def test_fifo_preserves_arrival_order():
    sim = Simulator()
    sched = FIFOScheduler()
    jobs = [make_job(sim, tenant="t%d" % i) for i in range(5)]
    for job in jobs:
        sched.push(job)
    assert sched.peek() is jobs[0]
    assert drain(sched) == jobs


# ------------------------------------------------------------------------ WFQ
def test_wfq_light_tenant_overtakes_backlog():
    """A low-weight flood must not starve a high-weight tenant's job."""
    sim = Simulator()
    sched = WFQScheduler({"heavy": 1.0, "light": 4.0})
    flood = [make_job(sim, tenant="heavy") for _ in range(8)]
    for job in flood:
        sched.push(job)
    late = make_job(sim, tenant="light")
    sched.push(late)
    order = drain(sched)
    # The light job's finish tag (vtime + 1/4) beats all but the heavy
    # backlog entries already carrying smaller tags.
    assert order.index(late) < len(order) - 1
    assert order.index(late) <= 1


def test_wfq_equal_weights_interleave_by_sequence():
    sim = Simulator()
    sched = WFQScheduler({})
    a = [make_job(sim, tenant="a") for _ in range(3)]
    b = [make_job(sim, tenant="b") for _ in range(3)]
    for ja, jb in zip(a, b):
        sched.push(ja)
        sched.push(jb)
    order = drain(sched)
    # Identical finish tags break on push order: strict interleave.
    assert order == [a[0], b[0], a[1], b[1], a[2], b[2]]


def test_wfq_weight_ratio_controls_share():
    """Over a long backlog, pops respect the 3:1 weight ratio."""
    sim = Simulator()
    sched = WFQScheduler({"big": 3.0, "small": 1.0})
    for _ in range(30):
        sched.push(make_job(sim, tenant="big"))
        sched.push(make_job(sim, tenant="small"))
    first16 = [job.spec.tenant for job in
               [sched.pop() for _ in range(16)]]
    assert first16.count("big") == 12
    assert first16.count("small") == 4


def test_wfq_peek_matches_pop():
    sim = Simulator()
    sched = WFQScheduler({"a": 2.0})
    for tenant in ("b", "a", "b"):
        sched.push(make_job(sim, tenant=tenant))
    while len(sched):
        assert sched.peek() is sched.pop()


# -------------------------------------------------------------------- factory
def test_make_scheduler_names():
    assert make_scheduler("fifo").name == "fifo"
    assert make_scheduler("wfq", {"a": 2.0}).name == "wfq"
    with pytest.raises(ValueError):
        make_scheduler("lifo")


def test_empty_schedulers_return_none():
    for policy in ("fifo", "wfq"):
        sched = make_scheduler(policy)
        assert sched.peek() is None
        assert sched.pop() is None
        assert len(sched) == 0
