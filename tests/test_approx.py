"""Team 1's simulation-guided approximation."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import AIG, CONST0, CONST1
from repro.aig.aiger import dumps_aag
from repro.aig.approx import approximate_to_size, substitute_constants
from repro.aig.build import multiplier
from tests.conftest import random_aig
from tests import oracles


def _multiplier_aig(k=6):
    aig = AIG(2 * k)
    lits = aig.input_lits()
    for bit in multiplier(aig, lits[:k], lits[k:]):
        aig.set_output(bit)
    return aig


class TestSubstitute:
    def test_constant_substitution_semantics(self):
        aig = AIG(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        x = aig.add_and(a, b)
        y = aig.add_or(x, a)
        aig.set_output(y)
        forced = substitute_constants(aig, {x >> 1: CONST1})
        # y becomes (1 | a) = 1.
        assert forced.truth_tables() == [0b1111]

    def test_substitute_rejects_inputs(self):
        aig = AIG(2)
        aig.set_output(aig.add_and(aig.input_lit(0), aig.input_lit(1)))
        with pytest.raises(ValueError):
            substitute_constants(aig, {1: CONST0})

    def test_negated_references_get_opposite_constant(self):
        aig = AIG(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        x = aig.add_and(a, b)
        y = aig.add_and(x ^ 1, a)  # uses complement of x
        aig.set_output(y)
        forced = substitute_constants(aig, {x >> 1: CONST0})
        # !0 & a = a.
        assert forced.truth_tables() == [0b1010]


class TestApproximate:
    def test_reaches_target_size(self):
        aig = _multiplier_aig()
        target = 60
        small = approximate_to_size(aig, max_ands=target)
        assert small.num_ands <= target

    def test_noop_when_already_small(self):
        aig = random_aig(4, 10, seed=2)
        out = approximate_to_size(aig, max_ands=5000)
        assert out.truth_tables() == aig.truth_tables()

    def test_interface_preserved(self):
        aig = _multiplier_aig()
        small = approximate_to_size(aig, max_ands=100)
        assert small.n_inputs == aig.n_inputs
        assert small.num_outputs == aig.num_outputs

    def test_agreement_degrades_gracefully(self, rng):
        """The approximation should stay well above chance agreement."""
        aig = _multiplier_aig()
        small = approximate_to_size(aig, max_ands=150)
        X = rng.integers(0, 2, size=(2000, aig.n_inputs)).astype(np.uint8)
        agree = (aig.simulate(X) == small.simulate(X)).mean()
        assert agree > 0.6

    def test_deterministic_given_rng(self):
        aig = _multiplier_aig()
        a1 = approximate_to_size(
            aig, max_ands=80, rng=np.random.default_rng(7)
        )
        a2 = approximate_to_size(
            aig, max_ands=80, rng=np.random.default_rng(7)
        )
        assert a1.num_ands == a2.num_ands
        assert a1.truth_tables() == a2.truth_tables()


# ----------------------------------------------------------------------
# Byte goldens: sha256 of dumps_aag(approximate_to_size(...)).  The
# approximation loop must keep producing these exact graphs; refresh
# them only together with a documented change to Team 1's rule.
# ----------------------------------------------------------------------


def _wide_and_or_parity(n_inputs, n_parity):
    """AND of every input, ORed with the parity of the first few.

    Every AND-tree node is almost always 0, so substituting the most
    skewed ones collapses the circuit and trips the one-at-a-time guard.
    """
    aig = AIG(n_inputs)
    lits = aig.input_lits()
    tree = aig.add_and_multi(lits)
    if n_parity:
        tree = aig.add_or(tree, aig.add_xor_multi(lits[:n_parity]))
    aig.set_output(tree)
    return aig


def _skewed_patterns(n_inputs, seed):
    gen = np.random.default_rng(seed)
    return (gen.random((1000, n_inputs)) < 0.3).astype(np.uint8)


GOLDEN_CASES = {
    "multiplier-random": lambda: approximate_to_size(
        _multiplier_aig(8), max_ands=150, rng=np.random.default_rng(7),
    ),
    "random-aig-random": lambda: approximate_to_size(
        random_aig(12, 700, seed=5, n_outputs=8), max_ands=40,
        rng=np.random.default_rng(11),
    ),
    "multiplier-patterns": lambda: approximate_to_size(
        _multiplier_aig(8), max_ands=150, patterns=_skewed_patterns(16, 3),
    ),
    "random-aig-patterns": lambda: approximate_to_size(
        random_aig(12, 700, seed=5, n_outputs=8), max_ands=40,
        patterns=_skewed_patterns(12, 4),
    ),
    "collapse-guard-recovers": lambda: approximate_to_size(
        _wide_and_or_parity(16, 3), max_ands=2, rng=np.random.default_rng(3),
    ),
    "collapse-guard-gives-up": lambda: approximate_to_size(
        _wide_and_or_parity(16, 0), max_ands=4, rng=np.random.default_rng(3),
    ),
}


APPROX_GOLDEN = {
    "multiplier-random": (
        150, "dcc0f7422883a0834f5674c00c94341daff677a28f41869c115dcdc063dfe037"),
    "random-aig-random": (
        39, "1c59fbeda69a8329b89a5aa2276e516a5af6fddc83328e8d461b691f2e8aca18"),
    "multiplier-patterns": (
        148, "9fa06eee3939f797458b3d47e01d2130fddae69bea6f1eaad2ea912810863ce6"),
    "random-aig-patterns": (
        38, "c5c184fd7d0c7a51e6dac653ed5facc372764771e98f12fdbb661a0bf1300694"),
    "collapse-guard-recovers": (
        4, "5fc06faeed96fd037033798a109086c24bb83545b7c4c715f36da18c4db9a38b"),
    "collapse-guard-gives-up": (
        15, "1c8010fc051f0ba02796ce3c56e51ecd3345ea9c4a769ca838ad30f46fb5ae64"),
}


@pytest.mark.parametrize("name", sorted(APPROX_GOLDEN))
def test_approximation_bytes_are_pinned(name):
    want_ands, want_digest = APPROX_GOLDEN[name]
    out = GOLDEN_CASES[name]()
    assert out.num_ands == want_ands
    assert hashlib.sha256(dumps_aag(out).encode()).hexdigest() == want_digest


class TestValidation:
    """Bad overrides and literals raise ``ValueError`` instead of being
    silently misread."""

    @staticmethod
    def _and_with_const_output():
        aig = AIG(2)
        aig.set_output(aig.add_and(aig.input_lit(0), aig.input_lit(1)))
        aig.set_output(CONST0)
        return aig

    def test_substitute_rejects_the_constant_variable(self):
        # Unchecked, {0: CONST1} turns the constant-false output true.
        with pytest.raises(ValueError):
            substitute_constants(self._and_with_const_output(), {0: CONST1})

    def test_substitute_rejects_non_constant_values(self):
        # Unchecked, {v: 5} wires input 2 in place of node v.
        aig = self._and_with_const_output()
        with pytest.raises(ValueError):
            substitute_constants(aig, {aig.outputs[0] >> 1: 5})

    def test_substitute_rejects_unknown_variables(self):
        aig = self._and_with_const_output()
        with pytest.raises(ValueError):
            substitute_constants(aig, {99: CONST0})
        with pytest.raises(ValueError):
            substitute_constants(aig, {-1: CONST0})

    def test_extract_cone_rejects_unknown_literals(self):
        aig = self._and_with_const_output()
        with pytest.raises(ValueError):
            aig.extract_cone([2 * aig.num_vars])
        with pytest.raises(ValueError):
            aig.extract_cone([-2])


# ----------------------------------------------------------------------
# Differential oracle: ``reachable_vars``, ``extract_cone`` and
# ``substitute_constants`` written the direct way, as a stack walk and
# a rebuild of every node through ``add_and``.  The library's graphs
# must match them byte for byte, strash table included.
# ----------------------------------------------------------------------


def oracle_reachable_vars(aig, lits):
    mask = np.zeros(aig.num_vars, dtype=bool)
    stack = [lit >> 1 for lit in lits]
    while stack:
        var = stack.pop()
        if mask[var]:
            continue
        mask[var] = True
        if aig.is_and_var(var):
            f0, f1 = aig.fanins(var)
            stack.append(f0 >> 1)
            stack.append(f1 >> 1)
    return mask


def oracle_extract_cone(aig, lits=None):
    if lits is None:
        lits = list(aig.outputs)
    new = AIG(aig.n_inputs)
    mask = oracle_reachable_vars(aig, lits)
    mapping = np.full(aig.num_vars, -1, dtype=np.int64)
    mapping[0] = CONST0
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        if mask[base + j]:
            f0, f1 = aig.fanins(base + j)
            mapping[base + j] = new.add_and(
                int(mapping[f0 >> 1]) ^ (f0 & 1), int(mapping[f1 >> 1]) ^ (f1 & 1)
            )
    for lit in lits:
        new.set_output(int(mapping[lit >> 1]) ^ (lit & 1))
    return new


def oracle_substitute_constants(aig, overrides):
    new = AIG(aig.n_inputs)
    mapping = np.zeros(aig.num_vars, dtype=np.int64)
    for i in range(aig.n_inputs):
        mapping[1 + i] = new.input_lit(i)
    for var, const in overrides.items():
        mapping[var] = const
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        if base + j in overrides:
            continue
        f0, f1 = aig.fanins(base + j)
        mapping[base + j] = new.add_and(
            int(mapping[f0 >> 1]) ^ (f0 & 1), int(mapping[f1 >> 1]) ^ (f1 & 1)
        )
    for lit in aig.outputs:
        new.set_output(int(mapping[lit >> 1]) ^ (lit & 1))
    return oracle_extract_cone(new)


def assert_same_graph(got, want):
    assert dumps_aag(got) == dumps_aag(want)
    assert got._strash == want._strash
    # The copy is strashed: rebuilding any node finds the node itself.
    before = got.num_ands
    for var in range(got.n_inputs + 1, got.num_vars):
        f0, f1 = got.fanins(var)
        assert got.add_and(f1, f0) == 2 * var
    assert got.num_ands == before


def build_strashed_graph(seed, n_inputs, n_nodes, rollback):
    """A random strashed graph with dead logic, optionally grown past a rollback.

    Returns the graph and ``folds``: overrides under which a node
    collapses onto one of its fanins.  A third of the steps build
    ``AND(a, AND(p, r))`` next to a twin ``AND(a, p)``, in either order
    and with another node between them, so the fold ``r := 1`` makes
    the pair collide in the strash table.
    """
    rnd = random.Random(seed)
    aig = AIG(n_inputs)
    pool = aig.input_lits()
    folds = []
    shown = []  # twin triples, kept live as outputs

    def literal():
        return rnd.choice(pool) ^ rnd.randint(0, 1)

    def grow(count):
        for _ in range(count):
            inner = [lit for lit in pool if lit >> 1 > n_inputs]
            if not inner or rnd.random() < 2 / 3:
                pool.append(aig.add_and(literal(), literal()))
                continue
            a, b = literal(), rnd.choice(inner)
            p, r = rnd.sample(aig.fanins(b >> 1), 2)
            pair = [(a, b), (a, p)]
            rnd.shuffle(pair)
            triple = [aig.add_and(*pair[0]), aig.add_and(literal(), literal()),
                      aig.add_and(*pair[1])]
            pool.extend(triple)
            if r >> 1 > n_inputs:
                shown.extend(triple)
                folds.append((r >> 1, CONST0 if r & 1 else CONST1))

    grow(n_nodes)
    if rollback:
        state = oracles.checkpoint(aig)
        kept, kept_folds, kept_shown = len(pool), len(folds), len(shown)
        grow(n_nodes // 2 + 1)
        oracles.rollback(aig, state)
        del pool[kept:], folds[kept_folds:], shown[kept_shown:]
        grow(n_nodes // 2)
    outputs = [CONST0, CONST1, *pool]
    for lit in shown + rnd.sample(outputs, min(len(outputs), rnd.randint(1, 6))):
        aig.set_output(lit ^ rnd.randint(0, 1))
    return aig, folds


strashed_graphs = st.builds(
    build_strashed_graph, st.integers(0, 2**32 - 1), st.integers(1, 4),
    st.integers(4, 30), st.booleans(),
)


@st.composite
def graphs_and_overrides(draw):
    aig, folds = draw(strashed_graphs)
    and_vars = range(aig.n_inputs + 1, aig.num_vars)
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    overrides = dict(rnd.sample(folds, min(len(folds), rnd.randint(1, 3))))
    for var in rnd.sample(and_vars, min(len(and_vars), rnd.randint(0, 3))):
        overrides[var] = rnd.choice([CONST0, CONST1])
    return aig, overrides


class TestDifferential:
    @given(strashed_graphs, st.data())
    @settings(max_examples=150, deadline=None)
    def test_reachable_vars_and_extract_cone_match_the_rebuild(self, graph, data):
        aig, _ = graph
        lits = data.draw(st.lists(
            st.integers(0, 2 * aig.num_vars - 1), max_size=6
        ))
        for subset in (None, lits):
            want_lits = aig.outputs if subset is None else subset
            assert np.array_equal(
                aig.reachable_vars(subset), oracle_reachable_vars(aig, want_lits)
            )
            assert_same_graph(aig.extract_cone(subset), oracle_extract_cone(aig, subset))

    @given(graphs_and_overrides())
    @settings(max_examples=300, deadline=None)
    def test_substitute_constants_matches_the_rebuild(self, case):
        aig, overrides = case
        assert_same_graph(
            substitute_constants(aig, overrides),
            oracle_substitute_constants(aig, overrides),
        )

    def test_merge_keeps_the_lower_index(self):
        """A rewired node takes the key of a later node, which merges into it."""
        aig = AIG(3)
        a, b, c = aig.input_lits()
        e = aig.add_and(a, c)
        d = aig.add_and(b, e)
        v = aig.add_and(a, d)
        z = aig.add_and(b, c)
        w = aig.add_and(a, b)
        for lit in (v, z, w, aig.add_and(w, c)):
            aig.set_output(lit)
        # e := 1 makes d = b, so v becomes AND(a, b): the key of w > v.
        # The merged node sits in v's slot, before z.
        got = substitute_constants(aig, {e >> 1: CONST1})
        assert_same_graph(got, oracle_substitute_constants(aig, {e >> 1: CONST1}))
        assert got.outputs[0] == got.outputs[2] < got.outputs[1]
        assert got.num_ands == 3

    def test_rewired_node_takes_a_freed_key(self):
        """The key of an overridden node is free for a later rewired node."""
        aig = AIG(3)
        a, b, c = aig.input_lits()
        h = aig.add_and(a, b)
        z = aig.add_and(b, c)
        e = aig.add_and(a, c)
        d = aig.add_and(b, e)
        v = aig.add_and(a, d)
        for lit in (h, z, v):
            aig.set_output(lit)
        # h := 0 frees AND(a, b); e := 1 makes v = AND(a, b), created
        # anew in v's slot, after z.
        overrides = {h >> 1: CONST0, e >> 1: CONST1}
        got = substitute_constants(aig, overrides)
        assert_same_graph(got, oracle_substitute_constants(aig, overrides))
        assert got.outputs[0] == CONST0
        assert got.outputs[1] < got.outputs[2]

    @pytest.mark.parametrize("seed", range(4))
    def test_approximation_rounds_match_the_rebuild(self, seed):
        aig = random_aig(6, 400, seed=seed, n_outputs=6).extract_cone()
        gen = np.random.default_rng(seed)
        for _ in range(6):
            and_vars = np.arange(aig.n_inputs + 1, aig.num_vars)
            if and_vars.size < 8:
                break
            picked = gen.choice(and_vars, size=8, replace=False)
            overrides = {int(v): int(gen.integers(0, 2)) for v in picked}
            got = substitute_constants(aig, overrides)
            assert_same_graph(got, oracle_substitute_constants(aig, overrides))
            aig = got
