"""The sanctioned clocks for observability code.

Two clocks, two jobs, never mixed:

* :func:`now` — the **monotonic perf clock** (``time.perf_counter``).
  Every duration, latency, span and stage timing in ``src/`` must come
  from differences of this clock; it never jumps backwards and has the
  finest resolution the platform offers.
* :func:`wall_time` — the **epoch clock** (``time.time``).  Only for
  *stamping* artifacts that leave the process (trace exports, bench
  trajectory files) with a human-anchorable creation time.  Never
  subtract two wall times to measure anything.

A lint rule (``TID251`` banned-api in ``ruff.toml``) forbids raw
``time.time`` and ``time.perf_counter`` everywhere else under ``src/``
so the distinction is enforced, not aspirational: this module is the
single allowed call site.
"""

from __future__ import annotations

import time

__all__ = ["now", "wall_time"]


#: Seconds on the process-wide monotonic perf clock.  The zero point
#: is arbitrary (process start, typically); only differences are
#: meaningful.  This is the one clock spans, stage timings and
#: latencies are measured on, which is also what lets one trace export
#: place every span on a single consistent timeline.  Bound directly
#: (not wrapped) so a hot-path ``now()`` costs no extra Python frame.
now = time.perf_counter


def wall_time() -> float:
    """Seconds since the Unix epoch — for stamping exported artifacts
    (``BENCH_*.json`` files, trace exports), never for measuring."""
    return time.time()  # noqa: TID251 - the single sanctioned call site
