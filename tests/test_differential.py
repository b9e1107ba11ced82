"""Differential tests: the array/sweep hot paths against their oracles.

Cut enumeration, the refactor cone sweep, ISOP, candidate pricing,
tree routing and the learner stages (tree growth, forest votes,
permutation importance, neuron tables, CGP evaluation) each replaced
a straightforward implementation with a faster one that must return
exactly the same thing.  The
straightforward versions live in :mod:`tests.oracles`; every test
here compares the two on seeded graphs, tables and trees.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import AIG
from repro.aig.aiger import loads_aag
from repro.aig.cuts import enumerate_cuts_with_truths
from repro.aig.build import compile_sop
from repro.aig.isop import full_mask, isop, var_mask
from repro.aig.opt.counting import price, replay
from repro.aig.opt.library import get_library
from repro.aig.opt.traverse import cone_truth, cut_truth, ffc_cones
from repro.cgp import AIG_FUNCTIONS, XAIG_FUNCTIONS, CGPEvolver, CGPGenome
from repro.ml.decision_tree import DecisionTree, _pessimistic_errors, entropy
from repro.ml.feature_select import permutation_importance
from repro.ml.forest import RandomForest
from repro.ml.mlp import _ACTIVATIONS
from repro.synth.from_mlp import _neuron_table
from repro.utils.bitops import pack_bits
from tests import oracles

SHAPES = ("random", "chain", "reconvergent")


def strashed_graph(shape: str, n_inputs: int, n_nodes: int, seed: int) -> AIG:
    """A seeded graph built through ``add_and`` (so strashed).

    ``chain`` ANDs one accumulator with input literals (deep, narrow);
    ``reconvergent`` draws both fanins from the last few nodes, so
    cones share logic; ``random`` draws from the whole pool.
    """
    rnd = random.Random(seed)
    aig = AIG(n_inputs)
    pool = list(aig.input_lits())
    acc = pool[0]
    for _ in range(n_nodes):
        flip = rnd.randint(0, 1)
        if shape == "chain":
            acc = aig.add_and(acc, rnd.choice(aig.input_lits()) ^ flip)
            pool.append(acc)
            continue
        if shape == "reconvergent":
            window = pool[-6:]
            a, b = rnd.choice(window), rnd.choice(window)
        else:
            a, b = rnd.choice(pool), rnd.choice(pool)
        pool.append(aig.add_and(a ^ flip, b ^ rnd.randint(0, 1)))
    aig.set_output(pool[-1])
    return aig


def raw_graph(n_inputs: int, n_nodes: int, seed: int) -> AIG:
    """A seeded graph with constant and duplicate fanins, not strashed."""
    rnd = random.Random(seed)
    aig = AIG(n_inputs)
    for _ in range(n_nodes):
        top = 2 * aig.num_vars
        a = rnd.randrange(top)
        b = rnd.randrange(top)
        roll = rnd.random()
        if roll < 0.15:
            a = rnd.randint(0, 1)
        elif roll < 0.3:
            b = a ^ rnd.randint(0, 1)
        aig._fanin0.append(a)
        aig._fanin1.append(b)
    aig.outputs = [2 * (aig.num_vars - 1)]
    return aig


def aag_graph(n_inputs: int, n_nodes: int, seed: int) -> AIG:
    """:func:`loads_aag` of text with constant and duplicate fanins."""
    rnd = random.Random(seed)
    lines = [str(2 * (1 + i)) for i in range(n_inputs)]
    out = 2 * (n_inputs + n_nodes)
    lines.append(str(out))
    for j in range(n_nodes):
        lhs = 2 * (n_inputs + 1 + j)
        a = rnd.randrange(lhs)
        b = a ^ rnd.randint(0, 1) if rnd.random() < 0.2 else rnd.randrange(lhs)
        if rnd.random() < 0.15:
            b = rnd.randint(0, 1)
        lines.append(f"{lhs} {a} {b}")
    header = f"aag {n_inputs + n_nodes} {n_inputs} 0 1 {n_nodes}"
    return loads_aag("\n".join([header, *lines]) + "\n")


seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------
# Cut enumeration
# ---------------------------------------------------------------------
@given(
    shape=st.sampled_from(SHAPES),
    n_inputs=st.integers(1, 8),
    n_nodes=st.integers(0, 60),
    seed=seeds,
    k=st.sampled_from([3, 4, 5]),
    max_cuts=st.sampled_from([5, 8, 12]),
)
@settings(max_examples=60, deadline=None)
def test_cuts_match_oracle_on_strashed_graphs(
    shape, n_inputs, n_nodes, seed, k, max_cuts
):
    aig = strashed_graph(shape, n_inputs, n_nodes, seed)
    assert enumerate_cuts_with_truths(aig, k, max_cuts) == (
        oracles.enumerate_cuts_with_truths(aig, k, max_cuts)
    )


@given(
    source=st.sampled_from([raw_graph, aag_graph]),
    n_inputs=st.integers(1, 6),
    n_nodes=st.integers(1, 40),
    seed=seeds,
    k=st.sampled_from([3, 4, 5]),
    max_cuts=st.sampled_from([5, 8, 12]),
)
@settings(max_examples=60, deadline=None)
def test_cuts_match_oracle_with_constant_and_duplicate_fanins(
    source, n_inputs, n_nodes, seed, k, max_cuts
):
    aig = source(n_inputs, n_nodes, seed)
    assert enumerate_cuts_with_truths(aig, k, max_cuts) == (
        oracles.enumerate_cuts_with_truths(aig, k, max_cuts)
    )


@pytest.mark.parametrize("k", [7, 8])
def test_cuts_match_oracle_with_multiword_tables(k):
    # Tables over more than 6 leaves span several 64-bit words.
    for seed in range(3):
        aig = strashed_graph("reconvergent", 10, 40, seed)
        assert enumerate_cuts_with_truths(aig, k, 6) == (
            oracles.enumerate_cuts_with_truths(aig, k, 6)
        )


def test_cuts_reject_nonpositive_sizes():
    aig = strashed_graph("random", 3, 5, 0)
    with pytest.raises(ValueError):
        enumerate_cuts_with_truths(aig, k=0)
    with pytest.raises(ValueError):
        enumerate_cuts_with_truths(aig, max_cuts=0)


# ---------------------------------------------------------------------
# Refactor cone sweep
# ---------------------------------------------------------------------
@given(
    source=st.sampled_from(["random", "chain", "reconvergent", "raw", "aag"]),
    n_inputs=st.integers(1, 16),
    n_nodes=st.integers(1, 80),
    seed=seeds,
    max_leaves=st.sampled_from([4, 10, 14]),
)
@settings(max_examples=80, deadline=None)
def test_cone_sweep_matches_per_node_walks(
    source, n_inputs, n_nodes, seed, max_leaves
):
    if source == "raw":
        aig = raw_graph(n_inputs, n_nodes, seed)
    elif source == "aag":
        aig = aag_graph(n_inputs, n_nodes, seed)
    else:
        aig = strashed_graph(source, n_inputs, n_nodes, seed)
    fanout = aig.fanout_counts()
    cones, sizes, _ = ffc_cones(aig, fanout.tolist(), max_leaves)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        var = base + j
        cone = cones[j]
        swept = None if cone is None or len(cone) < 2 else tuple(sorted(cone))
        assert swept == oracles.ffc_leaves(aig, var, fanout, max_leaves)
        assert sizes[j] == oracles.mffc_size(aig, var, fanout)


def test_cone_sweep_propagates_too_wide_fanins():
    # x4 has 5 leaves, too wide for max_leaves=4; its single-fanout
    # parent must be too wide as well, even though its other fanin
    # alone would give it a 2-leaf cone.
    aig = AIG(7)
    a, b, c, d, e, f, g = aig.input_lits()
    x4 = aig.add_and(aig.add_and(aig.add_and(aig.add_and(a, b), c), d), e)
    top = aig.add_and(x4, aig.add_and(f, g))
    aig.set_output(top)
    fanout = aig.fanout_counts()
    cones, _, _ = ffc_cones(aig, fanout.tolist(), max_leaves=4)
    assert cones[(top >> 1) - aig.n_inputs - 1] is None
    assert oracles.ffc_leaves(aig, top >> 1, fanout, 4) is None


@given(
    source=st.sampled_from(["random", "chain", "reconvergent", "raw", "aag"]),
    n_inputs=st.integers(1, 16),
    n_nodes=st.integers(1, 80),
    seed=seeds,
)
@settings(max_examples=300, deadline=None)
def test_member_cone_truth_matches_cut_truth(source, n_inputs, n_nodes, seed):
    if source == "raw":
        aig = raw_graph(n_inputs, n_nodes, seed)
    elif source == "aag":
        aig = aag_graph(n_inputs, n_nodes, seed)
    else:
        aig = strashed_graph(source, n_inputs, n_nodes, seed)
    fanout = aig.fanout_counts().tolist()
    base = aig.n_inputs + 1
    for max_leaves in (4, 10, 14):
        cones, _, members = ffc_cones(aig, fanout, max_leaves)
        for j, cone in enumerate(cones):
            assert (members[j] is None) == (cone is None)
            if cone is None:
                continue
            nodes, start, end = members[j]
            assert nodes[end - 1] == base + j
            leaves = sorted(cone)
            assert cone_truth(aig, leaves, nodes[start:end]) == cut_truth(
                aig, base + j, leaves
            )


@given(
    shape=st.sampled_from(SHAPES),
    n_nodes=st.integers(0, 60),
    seed=seeds,
    n_outputs=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_fanout_counts_match_loop(shape, n_nodes, seed, n_outputs):
    aig = strashed_graph(shape, 4, n_nodes, seed)
    aig.outputs = aig.outputs[:n_outputs] + [2, 3][: max(0, n_outputs - 1)]
    expected = np.zeros(aig.num_vars, dtype=np.int64)
    for f0, f1 in zip(aig._fanin0, aig._fanin1, strict=True):
        expected[f0 >> 1] += 1
        expected[f1 >> 1] += 1
    for lit in aig.outputs:
        expected[lit >> 1] += 1
    counts = aig.fanout_counts()
    assert counts.dtype == np.int64
    assert np.array_equal(counts, expected)


# ---------------------------------------------------------------------
# Candidate pricing: compiled AND programs against the virtual builder
# ---------------------------------------------------------------------
def leaf_literals(aig: AIG, k: int, rnd: random.Random) -> list[int]:
    """``k`` literals of ``aig`` with constants, repeats and
    complementary pairs among them."""
    leaves: list[int] = []
    for _ in range(k):
        roll = rnd.random()
        if roll < 0.1:
            leaves.append(rnd.randint(0, 1))
        elif roll < 0.3 and leaves:
            leaves.append(rnd.choice(leaves) ^ rnd.randint(0, 1))
        else:
            leaves.append(rnd.randrange(2, 2 * aig.num_vars))
    return leaves


def check_program(aig: AIG, nodes, out, vals, build) -> None:
    """``price`` and ``replay`` of a program against ``build``, the
    oracle construction of the same logic through any ``add_and``
    sink, at budgets None, 0, the exact cost and one below it."""
    exact = oracles.VirtualBuilder(aig)
    lit = build(exact)
    cost = exact.n_new
    for budget in (None, 0, cost, cost - 1):
        counter = oracles.VirtualBuilder(aig, budget=budget)
        try:
            built = build(counter)
        except oracles.BudgetExceeded:
            expected = None
        else:
            expected = (counter.n_new, built)
        assert price(nodes, out, vals, aig._strash, aig.num_vars, budget) == (
            expected
        )
    before = aig.num_ands
    assert replay(aig, nodes, out, vals) == lit
    assert aig.num_ands - before == cost


@given(
    shape=st.sampled_from(SHAPES),
    n_nodes=st.integers(0, 40),
    seed=seeds,
    k=st.integers(2, 10),
    negated=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_sop_programs_price_like_the_virtual_builder(
    shape, n_nodes, seed, k, negated
):
    rnd = random.Random(seed)
    aig = strashed_graph(shape, 6, n_nodes, seed)
    leaves = leaf_literals(aig, k, rnd)
    table = rnd.getrandbits(1 << k)
    if negated:
        table = ~table & full_mask(k)
    cover, _ = isop(table, table, k)
    # Build part of the cover first, so the candidate shares logic
    # with the graph as well as within itself.
    oracles.sop_over_leaves(aig, cover[: rnd.randint(0, len(cover))], leaves)
    nodes, out = compile_sop(cover, k)
    check_program(
        aig, nodes, out, [0, *leaves],
        lambda sink: oracles.sop_over_leaves(sink, cover, leaves),
    )


@given(
    shape=st.sampled_from(SHAPES),
    n_nodes=st.integers(0, 40),
    seed=seeds,
    k=st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_recipe_programs_price_like_instantiate(shape, n_nodes, seed, k):
    rnd = random.Random(seed)
    aig = strashed_graph(shape, 6, n_nodes, seed)
    lib = get_library()
    leaves = leaf_literals(aig, k, rnd)
    table = rnd.getrandbits(1 << k)
    lib.instantiate(aig, rnd.getrandbits(1 << k), leaves)  # shared logic
    recipe, perm, phase, out_neg = lib.lookup(table, k)
    vals = [0] * (1 + k)
    for i, leaf in enumerate(leaves):
        vals[1 + perm[i]] = leaf ^ ((phase >> i) & 1)
    check_program(
        aig, recipe.nodes, recipe.out ^ out_neg, vals,
        lambda sink: lib.instantiate(sink, table, leaves),
    )


# ---------------------------------------------------------------------
# ISOP
# ---------------------------------------------------------------------
def _structured_tables(k: int) -> list[int]:
    fm = full_mask(k)
    tables = [0, fm]
    for i in range(k):
        tables += [var_mask(k, i), ~var_mask(k, i) & fm]
    return tables


@pytest.mark.parametrize("k", range(11))
def test_isop_matches_oracle_on_structured_tables(k):
    for table in _structured_tables(k):
        assert isop(table, table, k) == oracles.isop(table, table, k)


@given(k=st.integers(0, 10), seed=seeds, interval=st.booleans())
@settings(max_examples=150, deadline=None)
def test_isop_matches_oracle_on_random_tables(k, seed, interval):
    rnd = random.Random(seed)
    fm = full_mask(k)
    f = rnd.getrandbits(1 << k) & fm
    dc = rnd.getrandbits(1 << k) & fm if interval else 0
    lower, upper = f & ~dc, f | dc
    assert isop(lower, upper, k) == oracles.isop(lower, upper, k)


# ---------------------------------------------------------------------
# Decision trees
# ---------------------------------------------------------------------
@given(
    seed=seeds,
    n=st.integers(1, 200),
    d=st.integers(1, 10),
    max_depth=st.sampled_from([None, 1, 3, 6]),
    cf=st.sampled_from([0.001, 0.1, 0.25, 0.5]),
)
@settings(max_examples=50, deadline=None)
def test_tree_predict_matches_oracle_after_fit_prune_and_refit(
    seed, n, d, max_depth, cf
):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, d)).astype(np.uint8)
    y = (X[:, 0] ^ (X[:, -1] & rng.integers(0, 2, n))).astype(np.uint8)
    rows = rng.integers(0, 2, (50, d)).astype(np.uint8)
    tree = DecisionTree(max_depth=max_depth).fit(X, y)
    assert np.array_equal(tree.predict(rows), oracles.tree_predict(tree, rows))
    tree.prune(cf)
    assert np.array_equal(tree.predict(rows), oracles.tree_predict(tree, rows))
    assert np.array_equal(
        tree.predict(rows[0]), oracles.tree_predict(tree, rows[0])
    )
    tree.fit(X[::-1], 1 - y)
    assert np.array_equal(tree.predict(rows), oracles.tree_predict(tree, rows))


def test_unfitted_tree_predict_raises_value_error():
    with pytest.raises(ValueError, match="not fitted"):
        DecisionTree().predict(np.zeros((2, 3), dtype=np.uint8))


def test_pessimistic_errors_memo_is_bit_identical():
    for n, errors, cf in [(100, 5, 0.25), (7, 0, 0.01), (50, 49, 0.5)]:
        direct = _pessimistic_errors.__wrapped__(n, errors, cf)
        assert _pessimistic_errors(n, errors, cf) == direct
        assert _pessimistic_errors(n, errors, cf) == direct  # cache hit


# ---------------------------------------------------------------------
# Learners: bit-packed tree growth, routed forest votes, batched
# permutation importance, one-pass neuron tables, CGP active sets
# ---------------------------------------------------------------------
def labelled_rows(seed: int, n: int, d: int, noise: float):
    """Rows whose label mixes a few features with seeded label noise,
    so trees grow both pure and impure leaves."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, d)).astype(np.uint8)
    y = X[:, 0] ^ (X[:, -1] & X[:, d // 2])
    y ^= (rng.random(n) < noise).astype(np.uint8)
    return X, y.astype(np.uint8)


def node_list(tree) -> list[tuple]:
    return [dataclasses.astuple(node) for node in tree.nodes]


@given(
    seed=seeds,
    n=st.integers(0, 300),
    d=st.integers(1, 12),
    noise=st.sampled_from([0.0, 0.1, 0.4]),
    criterion=st.sampled_from(["entropy", "gini"]),
    max_depth=st.sampled_from([None, 1, 3, 6]),
    min_samples_leaf=st.integers(1, 5),
    tau=st.sampled_from([None, 0.05, 0.5]),
)
@settings(max_examples=120, deadline=None)
def test_tree_nodes_match_row_copying_oracle(
    seed, n, d, noise, criterion, max_depth, min_samples_leaf, tau
):
    X, y = labelled_rows(seed, n, d, noise)
    kwargs = dict(criterion=criterion, max_depth=max_depth,
                  min_samples_leaf=min_samples_leaf, decomposition_tau=tau)
    tree = DecisionTree(**kwargs).fit(X, y)
    reference = oracles.ReferenceTree(**kwargs).fit(X, y)
    assert node_list(tree) == node_list(reference)


@given(
    seed=seeds,
    n=st.integers(0, 120),
    d=st.integers(1, 8),
    copies=st.integers(1, 3),
)
@settings(max_examples=120, deadline=None)
def test_looks_complement_matches_row_scan_oracle(seed, n, d, copies):
    # Few columns and repeated rows make key groups with several rows,
    # duplicates included, so the first-row-of-group rule is exercised.
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, size=(n, d)).astype(np.uint8)
    X = np.concatenate([base] * copies)[rng.permutation(n * copies)]
    y = rng.integers(0, 2, size=X.shape[0]).astype(np.uint8)
    for feature in range(d):
        assert DecisionTree._looks_complement(X, y, feature) == \
            oracles.looks_complement(X, y, feature)


def test_looks_complement_compares_with_first_row_of_group():
    # Rows 0 and 2 share a key with row 1 between them: row 1 agrees
    # with row 0 (same side), row 2 differs in side but not in label
    # from row 0 — a counterexample only against the *first* row.
    X = np.array([[0, 1], [0, 1], [1, 1]], dtype=np.uint8)
    y = np.array([1, 1, 1], dtype=np.uint8)
    assert oracles.looks_complement(X, y, 0) is False
    assert DecisionTree._looks_complement(X, y, 0) is False
    y = np.array([1, 0, 0], dtype=np.uint8)
    assert oracles.looks_complement(X, y, 0) is True
    assert DecisionTree._looks_complement(X, y, 0) is True


@given(values=st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 500)), min_size=1,
    max_size=40,
))
@settings(max_examples=80, deadline=None)
def test_entropy_matches_clip_oracle_bitwise(values):
    pos = np.array([min(p, t) for p, t in values], dtype=np.float64)
    total = np.array([t for _, t in values], dtype=np.float64)
    assert entropy(pos, total).tobytes() == oracles.entropy(pos, total).tobytes()


@given(
    seed=seeds,
    n=st.integers(1, 200),
    d=st.integers(1, 12),
    n_trees=st.sampled_from([1, 3, 7]),
    fraction=st.sampled_from([None, 0.3, 0.8]),
)
@settings(max_examples=40, deadline=None)
def test_routed_forest_votes_match_column_copying_oracle(
    seed, n, d, n_trees, fraction
):
    X, y = labelled_rows(seed, n, d, 0.1)
    forest = RandomForest(n_trees=n_trees, max_depth=6,
                          feature_fraction=fraction,
                          rng=np.random.default_rng(seed)).fit(X, y)
    rows = np.random.default_rng(seed + 1).integers(0, 2, (64, d))
    assert np.array_equal(forest.votes(rows), oracles.forest_votes(forest, rows))
    assert np.array_equal(forest.votes(rows[0]),
                          oracles.forest_votes(forest, rows[0]))


@given(
    seed=seeds,
    n=st.integers(1, 150),
    d=st.integers(1, 8),
    n_repeats=st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_batched_permutation_importance_matches_oracle(seed, n, d, n_repeats):
    X, y = labelled_rows(seed, n, d, 0.1)
    forest = RandomForest(n_trees=3, max_depth=4,
                          rng=np.random.default_rng(seed)).fit(X, y)
    got = permutation_importance(forest.predict, X, y, n_repeats=n_repeats,
                                 rng=np.random.default_rng(seed))
    want = oracles.permutation_importance(
        forest.predict, X, y, n_repeats=n_repeats,
        rng=np.random.default_rng(seed),
    )
    assert got.tobytes() == want.tobytes()


@given(
    k=st.integers(0, 12),
    seed=seeds,
    activation=st.sampled_from(_ACTIVATIONS),
    scale=st.sampled_from([0.1, 1.0, 3.0, 40.0]),
    anchor=st.sampled_from(["none", "integral", "tie"]),
)
@settings(max_examples=200, deadline=None)
def test_neuron_tables_match_per_pattern_oracle(
    k, seed, activation, scale, anchor
):
    """``integral`` weights put many patterns exactly on a threshold;
    ``tie`` sets the bias so that one pattern's z is 0.5 (the relu and
    identity threshold) as a per-pattern dot product computes it, where
    a matrix product that rounds the dot differently flips the bit."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, scale, k)
    bias = float(rng.normal(0.0, scale))
    if anchor == "integral":
        weights = np.round(weights)
        bias = float(np.round(bias)) + rng.choice([0.0, 0.5])
    elif anchor == "tie":
        pattern = int(rng.integers(0, 1 << k))
        bits = np.array([(pattern >> i) & 1 for i in range(k)], dtype=float)
        bias = 0.5 - float(weights @ bits)
    assert _neuron_table(weights, bias, activation) == oracles.neuron_table(
        weights, bias, activation
    )


@given(
    seed=seeds,
    n_inputs=st.integers(1, 8),
    n_nodes=st.integers(1, 60),
    xaig=st.booleans(),
    output_input=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_cgp_evaluation_matches_dict_oracle(
    seed, n_inputs, n_nodes, xaig, output_input
):
    rng = np.random.default_rng(seed)
    functions = XAIG_FUNCTIONS if xaig else AIG_FUNCTIONS
    genome = CGPGenome.random(n_inputs, n_nodes, rng, functions)
    if output_input:
        genome.output = int(rng.integers(0, n_inputs))
    packed = pack_bits(rng.integers(0, 2, (130, n_inputs)))
    assert genome.active_nodes() == oracles.cgp_active_nodes(genome)
    assert np.array_equal(genome.evaluate_packed(packed),
                          oracles.cgp_evaluate_packed(genome, packed))


@pytest.mark.parametrize("batch_size", [None, 50])
@pytest.mark.parametrize("seed", [0, 7])
def test_cgp_run_trajectory_matches_oracle(seed, batch_size):
    X, y = labelled_rows(seed, 120, 5, 0.0)
    runs = []
    for run in (CGPEvolver.run, oracles.cgp_run):
        evolver = CGPEvolver(n_nodes=40, batch_size=batch_size,
                             batch_generations=20,
                             rng=np.random.default_rng(seed))
        genome, fit = run(evolver, X, y, generations=80)
        runs.append((
            evolver.log.fitness, evolver.log.mutation_rate, fit,
            genome.funcs.tolist(), genome.in0.tolist(), genome.in1.tolist(),
            genome.output,
        ))
    assert runs[0] == runs[1]
