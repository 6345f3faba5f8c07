"""The paper's applications, built on the public Biscuit API.

* :mod:`repro.apps.wordcount` — the Section III-E working example
  (Mapper/Shuffler/Reducer SSDlets).
* :mod:`repro.apps.pointer_chase` — graph traversal by dependent reads
  (Table IV).
* :mod:`repro.apps.string_search` — grep vs the hardware pattern matcher
  (Table V).
* :mod:`repro.apps.sharded_search` — the same search fanned out over
  shards: across multiple SSDs (Scale-up, Fig. 1(b)) and across a networked
  cluster at three near-data tiers (Scale-out, Fig. 1(c)/(d)).
* :mod:`repro.apps.kvstore` — SkimpyStash-style store with device-side
  chain traversal (Section VI).
* :mod:`repro.apps.log_analytics` — hybrid SSDlet+HostTask pipeline and
  the "Is NDP for all?" demonstration (Section VI).
"""
