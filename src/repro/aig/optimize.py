"""ABC-style AIG size/depth optimization (facade).

The contest flows post-process every learned circuit with ABC's
``resyn2``/``compress2rs`` scripts; this module plays that role.  The
engine lives in :mod:`repro.aig.opt` — an NPN-canonical 4-input
library with mutation-free gain evaluation and iterative cone walks —
and this facade re-exports the passes under their historical names so
``from repro.aig.optimize import compress`` keeps working everywhere:

``balance``
    Depth-oriented rebuild of AND trees (ABC ``balance``).
``rewrite``
    DAG-aware 4-cut rewriting against the precomputed NPN library.
``refactor``
    MFFC cone resynthesis up to 10 leaves.
``fraig_lite``
    Simulation-guided, truth-table-proven equivalent-node merging.
``compress``
    The iterated script; never returns a graph larger than its input.
``compress_deep``
    A fixed-order hill climb over a wider palette (``compress``'s
    round plus larger-cone ``refactor`` and stronger ``fraig_lite``)
    to a fixpoint; also never larger than its input.

The seed build-measure-rollback implementations are preserved in
:mod:`repro.aig.opt.reference` as the benchmark baseline.
"""

from __future__ import annotations

from repro.aig.opt.passes import (  # noqa: F401 - re-exported API
    balance,
    compress,
    compress_deep,
    fraig_lite,
    refactor,
    rewrite,
)

__all__ = ["balance", "compress", "compress_deep", "fraig_lite", "refactor", "rewrite"]
