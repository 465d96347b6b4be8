"""The bounded module-level caches and the ``clear_caches()`` hook."""

from __future__ import annotations

from repro import clear_caches
from repro.caches import cache_sizes


def test_clear_caches_empties_every_registered_cache():
    from repro.config.presets import paper_system_config
    from repro.core import p4
    from repro.fleet.spec import ScenarioSpec
    from repro.traces.library import make_paper_traces

    # Populate each cache.
    p4._steps(7)
    ScenarioSpec(controller={"kind": "smartdpss", "v": 1.25}) \
        .build_system()
    make_paper_traces(paper_system_config(days=1), seed=5)
    sizes = cache_sizes()
    assert sizes["p4.steps"] >= 1
    assert sizes["fleet.spec.system"] >= 1
    assert sizes["traces.solar.clear_sky"] >= 1

    clear_caches()
    assert all(size == 0 for size in cache_sizes().values())
