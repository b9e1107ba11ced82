"""Golden equivalence: the Flow API ports == the pre-redesign run().

``tests/golden/flows_golden.json`` was captured from the module-level
``run()`` implementations *before* the registry/Stage redesign (see
``tests/golden/gen_flows_golden.py``).  Every registered flow — and
the portfolio composite — must still produce a byte-identical Solution
(method string, metadata, used-node count, AIGER bytes) for the same
fixed (problem, seed).  This is the contract that makes the redesign a
refactor instead of a behaviour change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.aig.aiger import dumps_aag
from repro.contest import DEFAULT_REGISTRY
from repro.flows import get_flow
from repro.runner.task import _json_safe

GOLDEN_PATH = Path(__file__).parent / "golden" / "flows_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

_problems = {}


def _problem(benchmark: int):
    if benchmark not in _problems:
        _problems[benchmark] = DEFAULT_REGISTRY.problem(
            DEFAULT_REGISTRY.by_index(benchmark),
            n_train=GOLDEN["n_samples"],
            n_valid=GOLDEN["n_samples"],
            n_test=GOLDEN["n_samples"],
            master_seed=GOLDEN["master_seed"],
        )
    return _problems[benchmark]


@pytest.mark.parametrize("case_id", sorted(GOLDEN["cases"]))
def test_flow_matches_pre_redesign_golden(case_id):
    entry = GOLDEN["cases"][case_id]
    flow = get_flow(entry["flow"])
    kwargs = {}
    if "members" in entry:
        kwargs["flows"] = entry["members"]
    solution = flow.run(
        _problem(entry["benchmark"]), effort="small",
        master_seed=GOLDEN["master_seed"], **kwargs,
    )
    assert solution.method == entry["method"], case_id
    assert (
        json.dumps(_json_safe(solution.metadata), sort_keys=True)
        == json.dumps(entry["metadata"], sort_keys=True)
    ), case_id
    assert solution.aig.count_used_ands() == entry["num_ands"], case_id
    aag = dumps_aag(solution.aig.extract_cone())
    digest = hashlib.sha256(aag.encode("utf-8")).hexdigest()
    assert digest == entry["aag_sha256"], case_id


def test_golden_covers_every_team_flow():
    """The pin must not silently lose coverage of a flow."""
    covered = {e["flow"] for e in GOLDEN["cases"].values()}
    expected = {f"team{i:02d}" for i in range(1, 11)} | {"portfolio"}
    assert covered == expected
