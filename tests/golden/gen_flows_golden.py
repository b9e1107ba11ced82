"""Regenerate ``flows_golden.json`` — the flow-equivalence pin.

The committed JSON was captured from the *pre-redesign* module-level
``run()`` implementations (before the Flow API landed), so the golden
test in ``tests/test_flows_golden.py`` proves the registry/Stage ports
produce byte-identical Solutions.  This script now runs the registered
flows, so regenerating re-baselines the equivalence pin: only do it
when a flow's behaviour is changed *deliberately*.

Run:  PYTHONPATH=src python tests/golden/gen_flows_golden.py
"""

import hashlib
import json
from pathlib import Path

N_SAMPLES = 200
MASTER_SEED = 0

#: (case id, benchmark index, flow name, portfolio member subset)
CASES = [
    ("ex30:team01", 30, "team01", None),
    ("ex30:team02", 30, "team02", None),
    ("ex30:team03", 30, "team03", None),
    ("ex30:team04", 30, "team04", None),
    ("ex30:team05", 30, "team05", None),
    ("ex30:team06", 30, "team06", None),
    ("ex30:team07", 30, "team07", None),
    ("ex30:team08", 30, "team08", None),
    ("ex30:team09", 30, "team09", None),
    ("ex30:team10", 30, "team10", None),
    # Match-path pins (parity short-circuits team01/team07) and the
    # augmentation path (team10 retrains on train+valid under 70%).
    ("ex74:team01", 74, "team01", None),
    ("ex74:team07", 74, "team07", None),
    ("ex74:team10", 74, "team10", None),
    # Portfolio: selection + method/metadata propagation.
    ("ex30:portfolio", 30, "portfolio", ["team02", "team10"]),
    ("ex74:portfolio", 74, "portfolio", ["team01", "team07"]),
]


def solution_entry(solution):
    from repro.aig.aiger import dumps_aag
    from repro.runner.task import _json_safe

    aag = dumps_aag(solution.aig.extract_cone())
    return {
        "method": solution.method,
        "metadata": _json_safe(solution.metadata),
        "num_ands": solution.aig.count_used_ands(),
        "aag_sha256": hashlib.sha256(aag.encode("utf-8")).hexdigest(),
    }


def run_case(benchmark, flow_name, members):
    from repro.contest import DEFAULT_REGISTRY
    from repro.flows import get_flow

    problem = DEFAULT_REGISTRY.problem(
        DEFAULT_REGISTRY.by_index(benchmark), n_train=N_SAMPLES,
        n_valid=N_SAMPLES, n_test=N_SAMPLES, master_seed=MASTER_SEED,
    )
    kwargs = {} if members is None else {"flows": members}
    solution = get_flow(flow_name).run(
        problem, effort="small", master_seed=MASTER_SEED, **kwargs
    )
    return solution_entry(solution)


def main():
    golden = {
        "n_samples": N_SAMPLES,
        "master_seed": MASTER_SEED,
        "cases": {},
    }
    for case_id, benchmark, flow_name, members in CASES:
        print(f"running {case_id} ...", flush=True)
        entry = run_case(benchmark, flow_name, members)
        entry["benchmark"] = benchmark
        entry["flow"] = flow_name
        if members is not None:
            entry["members"] = members
        golden["cases"][case_id] = entry
    out = Path(__file__).parent / "flows_golden.json"
    out.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out} ({len(golden['cases'])} cases)")


if __name__ == "__main__":
    main()
