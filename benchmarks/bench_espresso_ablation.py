"""Ablation: espresso heuristic vs exact Quine-McCluskey.

Design question from DESIGN.md: how far is the heuristic from optimal,
and what does the full reduce/expand loop buy over Team 1's
first-irredundant stop?  Expected shape: the heuristic stays within a
small factor of the exact cover on enumerable instances, and the full
loop never produces more cubes than first-irredundant.
"""

import random
import time

import numpy as np

from _report import echo
from repro.twolevel.espresso import espresso
from repro.twolevel.quine import quine_mccluskey


def _instances(n_instances=25, seed=0):
    rnd = random.Random(seed)
    out = []
    for _ in range(n_instances):
        n = rnd.randint(4, 7)
        universe = list(range(1 << n))
        rnd.shuffle(universe)
        n_on = rnd.randint(4, 1 << (n - 1))
        n_off = rnd.randint(4, 1 << (n - 1))
        out.append((n, universe[:n_on],
                    universe[n_on:n_on + n_off],
                    universe[n_on + n_off:]))
    return out


def test_espresso_vs_exact():
    instances = _instances()

    def run():
        rows = []
        for n, onset, offset, dcset in instances:
            t0 = time.time()
            heur = espresso(onset, offset, n)
            t_heur = time.time() - t0
            t0 = time.time()
            first = espresso(onset, offset, n, first_irredundant=True)
            t_first = time.time() - t0
            t0 = time.time()
            exact = quine_mccluskey(onset, dcset, n)
            t_exact = time.time() - t0
            rows.append((n, len(heur), len(first), len(exact),
                         t_heur, t_first, t_exact))
        return rows

    rows = run()
    echo("\n=== Ablation: espresso vs exact QM ===")
    echo(f"  {'n':>2} {'full':>5} {'first':>6} {'exact':>6}"
          f" {'t_full':>8} {'t_exact':>8}")
    ratios = []
    for n, full, first, exact, t_h, t_f, t_e in rows:
        echo(f"  {n:2d} {full:5d} {first:6d} {exact:6d}"
              f" {t_h:8.4f} {t_e:8.4f}")
        ratios.append(full / max(1, exact))
        assert full <= first, "reduce/expand must not grow the cover"
    mean_ratio = float(np.mean(ratios))
    echo(f"  mean cubes ratio heuristic/exact: {mean_ratio:.2f}")
    assert mean_ratio < 1.6, "heuristic within 60% of optimal on average"
