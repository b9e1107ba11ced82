"""NPN-library rewriting engine.

The size/depth optimization subsystem; :mod:`repro.aig` exports its
passes:

- :mod:`~repro.aig.opt.npn` — NPN canonicalization of 4-input tables.
- :mod:`~repro.aig.opt.library` — per-class best-known structures,
  synthesized once per process and instantiated by table lookup.
- :mod:`~repro.aig.opt.counting` — mutation-free candidate pricing:
  compiled AND programs priced by ``price`` against the graph's strash
  table and built by ``replay``; nodes are only appended, so only a
  winner is ever built.
- :mod:`~repro.aig.opt.traverse` — iterative cone walks (no recursion,
  safe on chain-shaped graphs of any depth).
- :mod:`~repro.aig.opt.passes` — the passes: ``balance``, ``rewrite``,
  ``refactor``, ``fraig_lite``, the ``compress`` script and its
  fixed-order fixpoint over a wider palette, ``compress_deep``.

Submodules are imported lazily by their users to keep import edges
acyclic (``repro.aig.build`` prices SOP polarities through
``counting`` while ``library`` synthesizes recipes through ``build``).
"""
