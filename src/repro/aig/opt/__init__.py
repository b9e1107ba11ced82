"""NPN-library rewriting engine.

The optimization subsystem behind :mod:`repro.aig.optimize`:

- :mod:`~repro.aig.opt.npn` — NPN canonicalization of 4-input tables.
- :mod:`~repro.aig.opt.library` — per-class best-known structures,
  synthesized once per process and instantiated by table lookup.
- :mod:`~repro.aig.opt.counting` — mutation-free candidate pricing:
  compiled AND programs priced by ``price`` against the graph's strash
  table and built by ``replay`` (no checkpoint/rollback).
- :mod:`~repro.aig.opt.traverse` — iterative cone walks (no recursion,
  safe on chain-shaped graphs of any depth).
- :mod:`~repro.aig.opt.passes` — the passes: ``balance``, ``rewrite``,
  ``refactor``, ``fraig_lite``, the ``compress`` script and its
  fixed-order fixpoint over a wider palette, ``compress_deep``.
- :mod:`~repro.aig.opt.reference` — the seed build-measure-rollback
  passes, kept as the pinned baseline for ``bench_opt_engine.py``.

Submodules are imported lazily by their users to keep import edges
acyclic (``repro.aig.build`` prices SOP polarities through
``counting`` while ``library`` synthesizes recipes through ``build``).
"""
