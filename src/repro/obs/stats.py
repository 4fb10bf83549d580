"""Declare-once counters: the stats dataclass is the counter store.

A serving resource declares each fact it keeps exactly once, as a
field of a :class:`Stats` dataclass::

    @dataclass
    class CacheStats(Stats):
        hits: int = counter("repro_cache_hits_total", "Buffer-pool hits")
        entries: int = gauge("repro_cache_entries", "Resident entries")

It holds one live instance and bumps it with plain attribute
increments under its own lock (no registry call, no label handling on
a hot path); ``stats()`` is :func:`dataclasses.replace` of that
instance — a locked copy — with the point-in-time gauges filled in.
Windows (:meth:`Stats.since`), shard aggregates (:meth:`Stats.merged`)
and registry rows (:meth:`Stats.rows`) are derived from the
declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Iterator, Mapping, Sequence

__all__ = ["Stats", "counter", "gauge", "plain"]


def counter(metric: str = "", help: str = "", label: str = "", default=0):
    """A monotonically increasing field (``since`` subtracts it).
    ``metric`` names the exported family; without one the field is
    kept but not exported.  ``label`` declares a field whose value is
    ``(label value, count)`` pairs, exported as one labelled row each."""
    return field(
        default=default, metadata=dict(kind="counter", metric=metric, help=help, label=label)
    )


def gauge(metric: str = "", help: str = "", default=0):
    """A point-in-time field (``since`` keeps the later value)."""
    return field(default=default, metadata=dict(kind="gauge", metric=metric, help=help, label=""))


@dataclass
class Stats:
    """Base of every counter-store dataclass (see module docstring)."""

    def since(self, earlier: "Stats") -> "Stats":
        """Activity between ``earlier`` and this snapshot: counters
        become deltas, everything else keeps this snapshot's value."""
        return replace(
            self,
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
                if f.metadata.get("kind") == "counter" and not f.metadata["label"]
            },
        )

    @classmethod
    def merged(cls, parts: Sequence["Stats"]) -> "Stats":
        """Aggregate all-numeric snapshots across shards.  Gauges sum
        too: each shard owns its own budget, residency and pool, like
        separate machines."""
        return cls(**{f.name: sum(getattr(p, f.name) for p in parts) for f in fields(cls)})

    def rows(self) -> Iterator[tuple]:
        """The ``(name, value, help, kind[, labels])`` rows
        :meth:`~repro.obs.registry.MetricsRegistry.register_view`
        consumes, one per field that carries a metric name."""
        for f in fields(self):
            meta = f.metadata
            if not meta.get("metric"):
                continue
            name, help, kind = meta["metric"], meta["help"], meta["kind"]
            if meta["label"]:
                for key, n in getattr(self, f.name):
                    yield name, n, help, kind, {meta["label"]: key}
            else:
                yield name, getattr(self, f.name), help, kind


def plain(value: Any) -> Any:
    """Recursively reduce snapshots to JSON-serializable plain data.

    Handles nested dataclasses (``MetricsSnapshot`` carries
    ``CacheStats``/``AdaptSnapshot``), numpy scalars,
    mappings, and sequences.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [plain(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    # numpy scalars (and anything else numeric) expose item();
    # fall back to str for the truly exotic rather than crashing an
    # export path.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return plain(item())
        except Exception:
            pass
    return str(value)
