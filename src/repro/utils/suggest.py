"""Near-match suggestions for unknown-name error messages.

Every registry in the library (problems, flows, spec-override keys)
rejects unknown names; this module is the one place that turns a
rejection into an actionable message — a ``difflib``-ranked "did you
mean" suffix — so typo diagnostics look and rank the same everywhere.
Deterministic: pure string similarity, no RNG.
"""

from __future__ import annotations

import difflib
from collections.abc import Iterable

__all__ = ["did_you_mean", "near_matches"]


def near_matches(name: str, pool: Iterable[str]) -> list[str]:
    """The up to 5 candidates closest to ``name`` with a similarity of
    at least 0.5, best first (may be empty)."""
    return difflib.get_close_matches(name, list(pool), n=5, cutoff=0.5)


def did_you_mean(name: str, pool: Iterable[str]) -> str:
    """A ``"; did you mean rewrite, refactor?"`` suffix, or ``""``
    when nothing in ``pool`` is close enough to suggest."""
    near = near_matches(name, pool)
    return f"; did you mean {', '.join(near)}?" if near else ""
