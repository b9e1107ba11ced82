"""Reproduction of "Logic Synthesis Meets Machine Learning: Trading
Exactness for Generalization" (IWLS 2020 contest, DATE 2021).

The package root exports nothing but ``__version__``, so importing
one subpackage loads only what that subpackage needs:

- :mod:`repro.aig` — And-Inverter Graphs, simulation, AIGER, optimization
- :mod:`repro.twolevel` — cubes, covers, PLA files, espresso, QM
- :mod:`repro.bdd` — ROBDDs with don't-care minimization
- :mod:`repro.ml` — from-scratch learners (trees, forests, boosting,
  rules, MLPs, LUT networks, feature selection, Shapley values)
- :mod:`repro.cgp` — Cartesian genetic programming
- :mod:`repro.synth` — model-to-AIG bridges and function matching
- :mod:`repro.contest` — the 100-benchmark suite and scoring harness
- :mod:`repro.flows` — the ten team flows and the portfolio
- :mod:`repro.analysis` — Table III / Fig. 2-4 regeneration
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
