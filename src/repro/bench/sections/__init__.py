"""Registered benchmark sections.

Importing this package registers every section (and its gates) into
:data:`repro.bench.registry.REGISTRY`:

* :mod:`repro.bench.sections.smoke` — the wall-clock-gated smoke mix
  (tag ``smoke``): accumulator loop, 6T engine, shard-plan overhead,
  the three compiled bulk workloads, the plan cache.
* :mod:`repro.bench.sections.kernel` — fast-vs-reference throughput
  sweeps (tag ``kernel``) over the 6T engine, the compiled latch and
  the compiled array slice.
* :mod:`repro.bench.sections.sharding` — the sharded-engine
  determinism/speedup run (tag ``sharding``).
* :mod:`repro.bench.sections.service` — the job service measured
  through its in-process client (tag ``service``): burst QPS/latency,
  facade bit-identity, single-flight compilation.
"""

from repro.bench.sections import kernel, service, sharding, smoke  # noqa: F401
