"""Parallel candidate evaluation: process-pool fan-out for SampleCF
builds and what-if costings, plus a persistent, content-addressed
estimation cache shared across advisor runs.

The package has three parts:

* :mod:`repro.parallel.signature` — stable (process-independent)
  content signatures for indexes, configurations and the
  sample population; every cross-process or on-disk cache key is built
  from these, never from Python's randomized ``hash()``.
* :mod:`repro.parallel.cache` — :class:`EstimationCache`, the on-disk
  size-estimate cache keyed on index signature x compression method x
  sample fingerprint.
* :mod:`repro.parallel.engine` — :class:`ParallelEngine`, a fork-based
  process pool with deterministic result ordering and a transparent
  sequential fallback (``workers=1`` or platforms without ``fork``).
"""

from repro.parallel.cache import EstimationCache
from repro.parallel.engine import DirtyRelay, ParallelEngine
from repro.parallel.signature import (
    config_signature,
    index_identity,
    index_signature,
    sample_fingerprint,
)

__all__ = [
    "DirtyRelay",
    "EstimationCache",
    "ParallelEngine",
    "config_signature",
    "index_identity",
    "index_signature",
    "sample_fingerprint",
]
