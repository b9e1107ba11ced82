"""Learning problems and solutions (the contest contract).

A flow receives the *training* and *validation* sets and must return a
:class:`Solution` whose AIG has at most 5000 AND nodes; the *test* set
stays with the harness, exactly as in the contest (it "was kept
private until the competition was over").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.aig import AIG
from repro.ml.dataset import Dataset

MAX_AND_NODES = 5000


@dataclass
class LearningProblem:
    """One benchmark instance with its three sample sets."""

    name: str
    category: str
    n_inputs: int
    train: Dataset
    valid: Dataset
    test: Dataset

    def merged_train_valid(self) -> Dataset:
        """Train+validation merge (several teams retrain on it)."""
        return self.train.merge(self.valid)


@dataclass
class Solution:
    """A flow's answer: the circuit plus bookkeeping.

    Size accounting is over *used* nodes (the transitive fanin of the
    outputs): a graph that still carries dead logic — e.g. a candidate
    that was never cone-extracted — is judged by what it actually
    computes with, exactly like a cleaned-up AIGER submission would
    have been.
    """

    aig: AIG
    method: str
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def num_ands(self) -> int:
        return self.aig.count_used_ands()

    def is_legal(self) -> bool:
        return self.num_ands <= MAX_AND_NODES
