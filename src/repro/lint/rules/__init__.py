"""The repro-lint rule registry — one module per rule.

Adding a rule: create ``rules/<slug>.py`` defining a
:class:`repro.lint.core.Rule` subclass and a module-level ``RULE``
instance, then append it to :data:`ALL_RULES` here and document it in
``repro/lint/README.md``.
"""

from __future__ import annotations

from repro.lint.rules.rng_discipline import RULE as R001_RNG_DISCIPLINE
from repro.lint.rules.exception_taxonomy import (
    RULE as R003_EXCEPTION_TAXONOMY,
)
from repro.lint.rules.store_discipline import (
    RULE as R004_STORE_DISCIPLINE,
)
from repro.lint.rules.wallclock import RULE as R005_WALLCLOCK_HYGIENE
from repro.lint.rules.telemetry_guard import RULE as R006_TELEMETRY_GUARD

#: Every shipped rule, in id order (R002 is retired; ids are never
#: reused).
ALL_RULES = (
    R001_RNG_DISCIPLINE,
    R003_EXCEPTION_TAXONOMY,
    R004_STORE_DISCIPLINE,
    R005_WALLCLOCK_HYGIENE,
    R006_TELEMETRY_GUARD,
)

#: id -> rule lookup for CLI ``--rules`` filtering.
RULES_BY_ID = {rule.id: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID"]
