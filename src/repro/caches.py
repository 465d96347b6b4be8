"""Module-level cache registry and the ``clear_caches()`` test hook.

The library keeps a handful of module-level caches on hot paths, all
of them *bounded* so long mixed-configuration sweeps cannot grow them
without limit:

============================================  =======================
cache                                         bound
============================================  =======================
``repro.core.p4._STEP_CACHE``                 64 entries (dict, FIFO
(candidate step vectors per window length)    eviction)
``repro.fleet.spec`` builder caches           ``lru_cache(1024)`` each
(system / trace-model / controller configs)
``repro.traces.solar._capacity_factors``      ``lru_cache(512)``
(clear-sky geometry per window)
``repro.baselines.offline._cached_structure``  ``lru_cache(8)``
(compiled offline-LP sparsity per system)
============================================  =======================

:func:`clear_caches` empties every one of them — the hook tests (and
long-lived services between sweeps) use to return the process to a
cold-cache state.  Entries are pure functions of their keys, so
clearing is always safe: the next use simply recomputes.
"""

from __future__ import annotations


def clear_caches() -> None:
    """Empty every registered module-level cache (see module docs)."""
    from repro.baselines import offline
    from repro.core import p4
    from repro.fleet import spec
    from repro.traces import solar

    p4._STEP_CACHE.clear()
    spec._cached_system.cache_clear()
    spec._cached_models.cache_clear()
    spec._cached_smartdpss_config.cache_clear()
    solar._capacity_factors.cache_clear()
    offline._cached_structure.cache_clear()


def cache_sizes() -> dict[str, int]:
    """Current entry counts per cache (introspection for tests)."""
    from repro.baselines import offline
    from repro.core import p4
    from repro.fleet import spec
    from repro.traces import solar

    return {
        "p4.steps": len(p4._STEP_CACHE),
        "fleet.spec.system": spec._cached_system.cache_info().currsize,
        "fleet.spec.models": spec._cached_models.cache_info().currsize,
        "fleet.spec.smartdpss":
            spec._cached_smartdpss_config.cache_info().currsize,
        "traces.solar.clear_sky":
            solar._capacity_factors.cache_info().currsize,
        "baselines.offline.structure":
            offline._cached_structure.cache_info().currsize,
    }


def cache_stats() -> dict[str, dict[str, int]]:
    """Per-cache warm-vs-cold statistics (what run manifests record).

    ``lru_cache``-backed caches report ``hits`` / ``misses`` /
    ``entries`` from their own counters; the dict cache (no hit
    accounting) reports ``entries`` only.  A fleet run samples this
    before and after execution, so the manifest shows how warm the
    process started (``hits`` already nonzero → a reused worker pool
    or an earlier in-process sweep) and how much the run itself
    reused.
    """
    from repro.baselines import offline
    from repro.core import p4
    from repro.fleet import spec
    from repro.traces import solar

    stats: dict[str, dict[str, int]] = {
        "p4.steps": {"entries": len(p4._STEP_CACHE)},
    }
    for name, cached in (
            ("fleet.spec.system", spec._cached_system),
            ("fleet.spec.models", spec._cached_models),
            ("fleet.spec.smartdpss", spec._cached_smartdpss_config),
            ("traces.solar.clear_sky", solar._capacity_factors),
            ("baselines.offline.structure", offline._cached_structure),
    ):
        info = cached.cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses,
                       "entries": info.currsize}
    return stats
