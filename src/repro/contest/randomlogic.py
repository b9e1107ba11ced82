"""Seeded random multi-level logic cones (PicoJava / i10 substitutes).

The contest's ex50-ex69 are output cones extracted from the PicoJava
and MCNC i10 netlists: 16-200 inputs, multi-level random-looking
control logic, onset/offset roughly balanced.  We cannot ship those
netlists, so we generate seeded random AIG cones with the same
profile and *resample until the output is balanced* (onset fraction in
[0.35, 0.65] over a probe set), as the benchmark description requires.

Two structural flavours distinguish the categories: ``control`` cones
(AND/OR-heavy, PicoJava-like) and ``mixed`` cones that also sprinkle
XOR/MUX nodes (i10-like).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.aig.aig import AIG, lit_not
from repro.contest.functions import brand_label_fn
from repro.utils.rng import rng_for


def _random_cone(
    n_inputs: int, n_nodes: int, flavour: str, rng: np.random.Generator
) -> AIG:
    aig = AIG(n_inputs)
    pool = list(aig.input_lits())
    for _ in range(n_nodes):
        a = int(pool[rng.integers(0, len(pool))])
        b = int(pool[rng.integers(0, len(pool))])
        if rng.random() < 0.5:
            a = lit_not(a)
        if rng.random() < 0.5:
            b = lit_not(b)
        if flavour == "mixed":
            kind = rng.random()
            if kind < 0.55:
                lit = aig.add_and(a, b)
            elif kind < 0.8:
                lit = aig.add_xor(a, b)
            else:
                c = int(pool[rng.integers(0, len(pool))])
                lit = aig.add_mux(a, b, c)
        else:
            lit = aig.add_and(a, b) if rng.random() < 0.7 else aig.add_or(a, b)
        pool.append(lit)
    aig.set_output(pool[-1])
    return aig.extract_cone()


def random_cone_function(
    n_inputs: int,
    flavour: str = "control",
    seed: int = 0,
    density: int = 3,
) -> Callable[[np.ndarray], np.ndarray]:
    """A balanced random logic-cone labelling function.

    Resamples (new derived seeds) until the cone output's onset
    fraction on a 2048-sample probe is in [0.35, 0.65], then freezes
    the cone.  ``density`` scales the node budget (``max(24, density *
    n_inputs)``) — the registry's swept-entropy knob: denser cones mix
    inputs more and are harder to learn.  The paper's cones use the default density 3, whose RNG
    stream is unchanged; other densities derive their own stream.
    """
    if density < 1:
        raise ValueError("density must be >= 1")
    n_nodes = max(24, density * n_inputs)
    for attempt in range(200):
        if density == 3:
            rng = rng_for("randomlogic", flavour, n_inputs, seed, attempt)
        else:
            rng = rng_for("randomlogic", flavour, n_inputs, seed,
                          attempt, "d", density)
        aig = _random_cone(n_inputs, n_nodes, flavour, rng)
        probe = rng.integers(0, 2, size=(2048, n_inputs)).astype(np.uint8)
        frac = float(aig.simulate(probe)[:, 0].mean())
        if 0.35 <= frac <= 0.65:
            break
    else:
        raise RuntimeError(
            f"could not generate a balanced cone for n={n_inputs}"
        )

    def fn(X: np.ndarray) -> np.ndarray:
        return aig.simulate(np.asarray(X, dtype=np.uint8))[:, 0]

    # ``aig`` is exposed for inspection in tests.
    return brand_label_fn(
        fn, n_inputs, f"{flavour}_cone_{n_inputs}_{seed}", aig=aig
    )
