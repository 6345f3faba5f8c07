"""End-to-end benchmark: host wall time and simulated time, by layer.

See ``README.md`` in this directory; the contract is ``BENCHMARK.json``
at the repository root.
"""
