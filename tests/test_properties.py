"""Property-based tests (hypothesis) on core data structures."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.aig.aig import AIG, lit_not
from repro.aig.build import from_truth_table, ripple_adder
from repro.aig.cec import check_equivalence
from repro.aig.isop import full_mask, isop
from repro.aig.opt.passes import balance, compress, fraig_lite, refactor, rewrite
from repro.twolevel.cube import Cube
from repro.twolevel.espresso import espresso
from repro.utils.bitops import pack_bits, unpack_bits
from tests.oracles import contains_cube, cover_table, evaluate_minterm, num_literals

# ---------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------

bit_matrices = st.integers(1, 200).flatmap(
    lambda n: st.integers(1, 8).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(0, 1), min_size=d, max_size=d),
            min_size=n, max_size=n,
        )
    )
)


@st.composite
def random_aigs(draw):
    n_inputs = draw(st.integers(1, 5))
    n_nodes = draw(st.integers(0, 25))
    aig = AIG(n_inputs)
    pool = list(aig.input_lits()) + [0, 1]
    for _ in range(n_nodes):
        a = draw(st.sampled_from(pool)) ^ draw(st.integers(0, 1))
        b = draw(st.sampled_from(pool)) ^ draw(st.integers(0, 1))
        pool.append(aig.add_and(a, b))
    aig.set_output(draw(st.sampled_from(pool)))
    return aig


# ---------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------


@given(bit_matrices)
@settings(max_examples=50, deadline=None)
def test_pack_unpack_roundtrip(rows):
    X = np.array(rows, dtype=np.uint8)
    assert np.array_equal(unpack_bits(pack_bits(X), X.shape[0]), X)


# ---------------------------------------------------------------------
# AIG invariants
# ---------------------------------------------------------------------


@given(random_aigs())
@settings(max_examples=60, deadline=None)
def test_extract_cone_preserves_function(aig):
    compact = aig.extract_cone()
    assert compact.truth_tables() == aig.truth_tables()
    assert compact.num_ands <= aig.num_ands


@given(random_aigs())
@settings(max_examples=40, deadline=None)
def test_optimization_equivalence(aig):
    tables = aig.truth_tables()
    assert balance(aig).truth_tables() == tables
    assert rewrite(aig).truth_tables() == tables


@given(random_aigs())
@settings(max_examples=25, deadline=None)
def test_every_pass_is_cec_equivalent_and_never_grows(aig):
    """Satellite property: each optimization pass (and the compress
    script) is proven functionally equivalent to its input by CEC
    (random refutation + exact BDD proof) and never increases the
    used-node count — the passes only ever rebuild reachable logic."""
    used_before = aig.count_used_ands()
    for pass_fn in (balance, rewrite, refactor, fraig_lite, compress):
        out = pass_fn(aig)
        equivalent, cex = check_equivalence(aig, out)
        assert equivalent, (pass_fn.__name__, cex)
        assert out.num_ands <= used_before, pass_fn.__name__


@given(random_aigs())
@settings(max_examples=40, deadline=None)
def test_simulation_consistent_with_truth_table(aig):
    n = aig.n_inputs
    grid = np.array(
        [[(m >> i) & 1 for i in range(n)] for m in range(1 << n)],
        dtype=np.uint8,
    )
    sim = aig.simulate(grid)[:, 0]
    table = aig.truth_tables()[0]
    for m in range(1 << n):
        assert sim[m] == (table >> m) & 1


@given(st.integers(0, 2**16 - 1), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_from_truth_table_both_methods(table, k):
    table &= full_mask(k)
    sop = from_truth_table(table, k, "sop")
    mux = from_truth_table(table, k, "mux")
    assert sop.truth_tables()[0] == table
    assert mux.truth_tables()[0] == table


@given(st.integers(1, 6), st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
@settings(max_examples=40, deadline=None)
def test_adder_commutes(k, a, b):
    a &= (1 << k) - 1
    b &= (1 << k) - 1
    aig = AIG(2 * k)
    lits = aig.input_lits()
    for bit in ripple_adder(aig, lits[:k], lits[k:]):
        aig.set_output(bit)
    row_ab = np.array(
        [[(a >> i) & 1 for i in range(k)] + [(b >> i) & 1 for i in range(k)]],
        dtype=np.uint8,
    )
    row_ba = np.array(
        [[(b >> i) & 1 for i in range(k)] + [(a >> i) & 1 for i in range(k)]],
        dtype=np.uint8,
    )
    assert np.array_equal(aig.simulate(row_ab), aig.simulate(row_ba))


# ---------------------------------------------------------------------
# ISOP and espresso
# ---------------------------------------------------------------------


@given(st.integers(1, 4), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
@settings(max_examples=80, deadline=None)
def test_isop_interval(k, f, dc):
    fm = full_mask(k)
    f &= fm
    dc &= fm
    lower = f & ~dc & fm
    upper = (f | dc) & fm
    cover, table = isop(lower, upper, k)
    assert lower & ~table & fm == 0
    assert table & ~upper & fm == 0
    assert cover_table(cover, k) == table


@given(
    st.integers(2, 6),
    st.sets(st.integers(0, 63), min_size=1, max_size=20),
    st.sets(st.integers(0, 63), min_size=1, max_size=20),
)
@settings(max_examples=60, deadline=None)
# Regression: REDUCE shrank both cubes sharing an ON-minterm away from
# it, and the cover lost minterms 40 and 56.
@example(n=6, onset={0, 1, 8, 28, 34, 40, 50, 54, 56}, offset={52})
def test_espresso_validity(n, onset, offset):
    onset = {m & ((1 << n) - 1) for m in onset}
    offset = {m & ((1 << n) - 1) for m in offset} - onset
    if not onset or not offset:
        return
    cover = espresso(sorted(onset), sorted(offset), n)
    assert all(evaluate_minterm(cover, m) for m in onset)
    assert not any(evaluate_minterm(cover, m) for m in offset)


# ---------------------------------------------------------------------
# Cube algebra
# ---------------------------------------------------------------------

cubes = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
    )
)


@given(cubes)
@settings(max_examples=100, deadline=None)
def test_cube_containment_consistent_with_minterms(params):
    n, mask, value = params
    cube = Cube(mask, value & mask)
    members = [m for m in range(1 << n) if cube.contains_minterm(m)]
    assert len(members) == 1 << (n - num_literals(cube))


@given(cubes)
@settings(max_examples=60, deadline=None)
def test_cube_expansion_is_superset(params):
    n, mask, value = params
    cube = Cube(mask, value & mask)
    for var in range(n):
        widened = cube.without_literal(var)
        assert contains_cube(widened, cube)


# ---------------------------------------------------------------------
# Double negation via literals
# ---------------------------------------------------------------------


@given(st.integers(0, 10_000))
def test_literal_complement_involution(lit):
    assert lit_not(lit_not(lit)) == lit
