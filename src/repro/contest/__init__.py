"""The IWLS 2020 contest: benchmarks, problems and scoring.

``registry`` is the source of truth for benchmarks: named specs
(``ex00``..``ex99``, the paper's Table I grid) plus parameterized
generator families (``adder:width=48``, ``cone:inputs=120,seed=7``)
materialized lazily through a bounded cache; ``suite`` documents
the Table I grid; ``problem`` defines the train/validation/test
triple handed to the team flows; ``evaluate`` scores solutions the
way the contest did (test accuracy, 5000-AND cap, ties broken by
size).
"""

from repro.contest.evaluate import Score, evaluate_solution
from repro.contest.problem import LearningProblem, Solution
from repro.contest.registry import (
    DEFAULT_REGISTRY,
    GeneratorFamily,
    MaterialCache,
    ProblemRegistry,
    ProblemSpec,
    clear_cache,
)
from repro.contest.suite import default_small_indices

__all__ = [
    "LearningProblem",
    "Solution",
    "Score",
    "evaluate_solution",
    "default_small_indices",
    "DEFAULT_REGISTRY",
    "GeneratorFamily",
    "MaterialCache",
    "ProblemRegistry",
    "ProblemSpec",
    "clear_cache",
]
