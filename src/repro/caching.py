"""Bounded LRU caches, the cache registry and content fingerprints.

Every memoization layer in the toolchain — Chisel parsing and per-module
elaboration, the FIRRTL pass pipeline, Verilog emission and parsing, compiled
simulation kernels, trace-compiled testbenches and vectorized NumPy kernels
(``sim_vec`` / ``sim_vec_kernel``) — shares :class:`LruCache`
so the eviction policy and hit/miss accounting live in one place.  Caches
constructed with a ``name`` self-register in a process-wide registry;
:func:`cache_stats` aggregates hits/misses/size per name (summing across
instances, e.g. every per-compiler result cache) and is what
``repro.service.telemetry`` snapshots surface.

The stage caches after parsing key on :func:`structural_fingerprint`, a
content hash of the parse tree or FIRRTL module that leaves out source
positions.  It encodes each dataclass type from a plan resolved once per type
(its name and field labels), so a candidate's cold compile pays for hashing
its nodes, not for reflecting on every one of them.

Cached values are shared between callers: treat them as immutable.
"""

from __future__ import annotations

import hashlib
import json
import threading
import weakref
from collections import OrderedDict
from dataclasses import fields
from typing import Generic, TypeVar

V = TypeVar("V")

_SENTINEL = object()


def text_key(*parts: str | None) -> str:
    """Stable cache key for one or more text fragments (e.g. source + top)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(b"\x00" if part is None else part.encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


def stable_fingerprint(document: object) -> str:
    """Content fingerprint of a JSON-serializable document.

    Keys are sorted and separators fixed so the digest is independent of dict
    insertion order and Python version.  Used by the sweep result store to key
    work units by their full configuration.
    """
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def structural_fingerprint(node: object, skip_fields: tuple[str, ...] = ("location",)) -> str:
    """Content hash of a dataclass tree, ignoring ``skip_fields`` everywhere.

    This is the key for the stage-level compile caches: two parse trees (or
    FIRRTL circuits) that differ only in source *positions* — shifted lines
    after an edit elsewhere in the file, moved comments — hash identically, so
    ReChisel iteration k+1 re-runs a stage only when the revision structurally
    changed its input.  The trade-off is the classic one of content-addressed
    build caches: diagnostics replayed from a cached stage carry the source
    coordinates of the first structurally-identical occurrence.  Error *text*,
    classes and ordering are unaffected.

    The hashed byte stream is fixed (US is the 0x1F unit separator): a
    dataclass instance is ``D``, its type name and US, then ``<field>=`` and
    the value for each field not skipped, in declaration order, then ``;``; a
    list or tuple is ``L``, its items and ``;``; a dict is ``M``, then each key,
    ``:`` and value, then ``;``; any other value is ``v``, its ``repr`` and US.
    The one exception is an ``int`` whose decimal form exceeds the
    interpreter's int -> str digit limit: it is ``h``, its hex digits and US,
    so a huge literal gets a key instead of a ``ValueError``.  Each type is
    resolved once per ``skip_fields`` to an encoding plan (see
    :func:`_plan_for`), so the walk does no per-node reflection.

    May raise ``RecursionError`` on pathologically deep trees; callers fall
    back to the uncached path in that case.
    """
    plans = _plans.get(skip_fields)
    if plans is None:
        plans = _plans.setdefault(skip_fields, {})
    parts: list[str] = []
    _encode(node, parts.append, plans, skip_fields)
    # One UTF-8 encode of the joined text equals encoding piece by piece.
    return hashlib.sha256("".join(parts).encode()).hexdigest()


# Encoding plans, one table per ``skip_fields`` value, keyed by exact type and
# filled the first time a type is met: a ``(header, ((attr, label), ...))``
# pair for a dataclass, else one of the three markers below.
_plans: dict[tuple[str, ...], dict[type, object]] = {}
_SEQUENCE = "sequence"
_MAPPING = "mapping"
_LEAF = "leaf"


def _plan_for(cls: type, plans: dict[type, object], skip_fields: tuple[str, ...]) -> object:
    if hasattr(cls, "__dataclass_fields__") and not issubclass(cls, type):
        plan: object = (
            f"D{cls.__name__}\x1f",
            tuple(
                (field_.name, f"{field_.name}=")
                for field_ in fields(cls)
                if field_.name not in skip_fields
            ),
        )
    elif issubclass(cls, (list, tuple)):
        plan = _SEQUENCE
    elif issubclass(cls, dict):
        plan = _MAPPING
    else:
        plan = _LEAF
    return plans.setdefault(cls, plan)


def _encode(value: object, append, plans: dict[type, object], skip_fields: tuple[str, ...]) -> None:
    cls = type(value)
    if cls is str or value is None or cls is bool:
        append(f"v{value!r}\x1f")
        return
    if cls is int:
        try:
            append(f"v{value!r}\x1f")
        except ValueError:  # beyond the int -> str digit limit
            append(f"h{value:x}\x1f")
        return
    plan = plans.get(cls)
    if plan is None:
        plan = _plan_for(cls, plans, skip_fields)
    if plan is _SEQUENCE:
        append("L")
        for item in value:
            _encode(item, append, plans, skip_fields)
        append(";")
    elif plan is _MAPPING:
        append("M")
        for key, item in value.items():
            _encode(key, append, plans, skip_fields)
            append(":")
            _encode(item, append, plans, skip_fields)
        append(";")
    elif plan is _LEAF:
        append(f"v{value!r}\x1f")
    else:
        header, field_plan = plan
        append(header)
        for attr, label in field_plan:
            append(label)
            _encode(getattr(value, attr), append, plans, skip_fields)
        append(";")


def get_or_compute(cache, key: str, compute, cache_exceptions: tuple = ()):
    """Shared stage-memo pattern: lookup, compute on miss, replay failures.

    Exceptions of the listed types are cached as values and re-raised on both
    the miss and every subsequent hit (the same faulty candidate recurs
    constantly across samples and repair iterations); anything else
    propagates uncached.
    """
    cached = cache.get(key, _SENTINEL)
    if cached is not _SENTINEL:
        if cache_exceptions and isinstance(cached, cache_exceptions):
            raise cached
        return cached
    try:
        value = compute()
    except cache_exceptions as exc:
        cache.put(key, exc)
        raise
    return cache.put(key, value)


# ---------------------------------------------------------------------------
# Cache registry
# ---------------------------------------------------------------------------

_registry: dict[str, list[weakref.ref]] = {}
_registry_lock = threading.Lock()


def register_cache(name: str, cache: "LruCache") -> "LruCache":
    """Track ``cache`` under ``name`` for :func:`cache_stats` aggregation."""
    with _registry_lock:
        _registry.setdefault(name, []).append(weakref.ref(cache))
    return cache


def _live_caches() -> dict[str, list["LruCache"]]:
    with _registry_lock:
        live: dict[str, list[LruCache]] = {}
        for name, refs in _registry.items():
            instances = [cache for ref in refs if (cache := ref()) is not None]
            refs[:] = [weakref.ref(cache) for cache in instances]
            if instances:
                live[name] = instances
        return live


def cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/size counters for every registered cache, aggregated by name.

    Covers the whole verification engine: ``chisel_parse``,
    ``chisel_elaborate``, ``chisel_compile`` (summed over compiler instances),
    ``firrtl_passes``, ``verilog_emit``, ``verilog_parse``, ``sim_kernel`` and
    ``sim_trace``.
    """
    stats: dict[str, dict[str, int]] = {}
    for name, instances in sorted(_live_caches().items()):
        stats[name] = {
            "hits": sum(cache.stats["hits"] for cache in instances),
            "misses": sum(cache.stats["misses"] for cache in instances),
            "size": sum(len(cache) for cache in instances),
            "instances": len(instances),
        }
    return stats


def clear_registered_caches() -> None:
    """Empty every registered cache and reset its counters (cold-start helper).

    Benchmarks use this to force deterministic cold runs; note it clears the
    *registered* caches only — per-object memos (module fingerprints, testbench
    trace plans) key by identity and stay valid.
    """
    for instances in _live_caches().values():
        for cache in instances:
            cache.clear()
    publish_cache_stats(name="cleared")


def publish_cache_stats(bus=None, name: str = "snapshot") -> None:
    """Publish one ``cache.stats`` event carrying :func:`cache_stats`.

    The stage caches are too hot to instrument per lookup; instead consumers
    (the generation service after each completed job, the console on demand)
    publish aggregate snapshots.  A no-op unless the bus has subscribers, so
    it is safe anywhere.
    """
    if bus is None:
        from repro.obs.events import get_bus

        bus = get_bus()
    if bus.active:
        bus.publish("cache.stats", name, caches=cache_stats())


def snapshot_registered_caches() -> list[tuple["LruCache", "OrderedDict", dict]]:
    """Capture the contents and counters of every registered cache.

    Used by test isolation (see the repo-root ``conftest.py``): a test that clears or
    cold-starts the global caches runs between :func:`snapshot_registered_caches`
    and :func:`restore_registered_caches`, so the rest of the suite keeps its
    warm state regardless of test ordering.  The snapshot holds strong
    references to the cache instances, so keep it short-lived.
    """
    snapshot = []
    for instances in _live_caches().values():
        for cache in instances:
            with cache._lock:
                snapshot.append((cache, OrderedDict(cache._data), dict(cache.stats)))
    return snapshot


def restore_registered_caches(snapshot: list[tuple["LruCache", "OrderedDict", dict]]) -> None:
    """Put every snapshotted cache back exactly as captured.

    Caches registered after the snapshot was taken are left untouched (they
    did not exist before the test, so there is no prior state to restore).
    """
    for cache, data, stats in snapshot:
        with cache._lock:
            cache._data.clear()
            cache._data.update(data)
            cache.stats.update(stats)


class LruCache(Generic[V]):
    """Bounded insertion-refreshing cache with hit/miss counters.

    ``max_size`` of 0 (or ``None``) disables storage entirely: every lookup
    misses and :meth:`put` is a no-op.  A ``name`` registers the instance for
    :func:`cache_stats` aggregation.

    Thread-safe: the async generation service shares these caches between the
    event loop (synthetic-client completions) and its bounded tool executor
    (compile/simulate offload), so lookups and insertions are lock-guarded.
    The caches memoize pure functions, so contention only ever costs time —
    but the guard keeps eviction bookkeeping consistent under interleaving.
    """

    def __init__(self, max_size: int | None, name: str | None = None):
        self.max_size = max_size or 0
        self.name = name
        self._data: OrderedDict[str, V] = OrderedDict()
        self.stats = {"hits": 0, "misses": 0}
        self._lock = threading.Lock()
        if name is not None:
            register_cache(name, self)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str, default: V | None = None) -> V | None:
        with self._lock:
            value = self._data.get(key, _SENTINEL)
            if value is _SENTINEL:
                self.stats["misses"] += 1
                return default
            self.stats["hits"] += 1
            self._data.move_to_end(key)
            return value  # type: ignore[return-value]

    def put(self, key: str, value: V) -> V:
        with self._lock:
            if self.max_size:
                self._data[key] = value
                while len(self._data) > self.max_size:
                    self._data.popitem(last=False)
            return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.stats.update(hits=0, misses=0)
