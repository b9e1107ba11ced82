"""Process-wide library of best-known AIG structures per NPN class.

ABC's ``rewrite`` owes its speed to a precomputed library of 4-input
functions: every cut function reduces, by NPN canonicalization, to one
of 222 classes, and each class carries a best-known implementation
that is *instantiated* — not resynthesized — at every rewrite site.
This module plays that role.

A class representative is synthesized once per process (ISOP in both
polarities and a Shannon MUX tree compete; the smallest strashed cone
wins) and stored as a :class:`Recipe`: a flat list of AND nodes over
local literals — the AND-program shape of
:mod:`repro.aig.opt.counting`.  :meth:`NpnLibrary.lookup` maps a cut
function to its recipe with the NPN transform that wires the cut's
leaves to the recipe's inputs folded in: one AND program over the
cut's leaves, built once per function.  The rewriting pass checks each
candidate program against the graph's strash table without building
it, so it never mutates the graph to measure a gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.aig import AIG, CONST0, CONST1
from repro.aig.isop import full_mask
from repro.aig.opt.counting import Program
from repro.aig.opt.npn import npn_canon


@dataclass(frozen=True)
class Recipe:
    """A canonical-class implementation over local literals.

    Local variable numbering: 0 is the constant, ``1 .. n_leaves`` are
    the leaves, AND node ``j`` is variable ``1 + n_leaves + j``.
    ``nodes[j]`` holds its fanin literals (``2 * var + compl``);
    ``out`` is the output literal.  ``size`` counts the AND nodes.
    """

    n_leaves: int
    nodes: tuple[tuple[int, int], ...]
    out: int
    size: int


def _encode(aig: AIG) -> Recipe:
    """Flatten a compact single-output AIG into a Recipe."""
    nodes = tuple(zip(aig._fanin0, aig._fanin1, strict=True))
    return Recipe(
        n_leaves=aig.n_inputs,
        nodes=nodes,
        out=aig.outputs[0],
        size=aig.num_ands,
    )


class NpnLibrary:
    """Canonical 4-input structures, built on demand and cached.

    One instance (see :func:`get_library`) is shared process-wide; the
    recipe cache is keyed on the canonical table, so each NPN class is
    synthesized at most once no matter how many circuits are rewritten.
    """

    def __init__(self):
        self._recipes: dict[tuple[int, int], Recipe] = {}
        # (k, table) -> folded program: canonicalization, recipe lookup
        # and the leaf transform collapsed into one dict hit.
        self._instances: dict[tuple[int, int], Program] = {}
        self._pairs: dict[tuple[int, int], tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def recipe(self, ctable: int, k: int) -> Recipe:
        """Best-known implementation of a *canonical* table."""
        key = (k, ctable)
        found = self._recipes.get(key)
        if found is not None:
            return found
        recipe = self._synthesize(ctable, k)
        self._recipes[key] = recipe
        return recipe

    @staticmethod
    def _synthesize(ctable: int, k: int) -> Recipe:
        # Imported here: repro.aig.build depends on repro.aig.opt for
        # program pricing, so the reverse import must be lazy.
        from repro.aig.build import from_truth_table

        best: AIG = None
        for method in ("sop", "mux"):
            cand = from_truth_table(ctable, k, method).extract_cone()
            if best is None or cand.num_ands < best.num_ands:
                best = cand
        return _encode(best)

    # ------------------------------------------------------------------
    def lookup(self, table: int, k: int) -> Program:
        """The AND program realizing a ``k``-input table over its leaves.

        The class recipe with its NPN transform folded in: the program
        (see :mod:`repro.aig.opt.counting`) runs over
        ``[CONST0, *leaves]`` in the order the table numbers them.
        The constant tables map to an empty program.
        """
        key = (k, table)
        found = self._instances.get(key)
        if found is None:
            fm = full_mask(k)
            table &= fm
            if table == 0 or table == fm:
                found = ((), CONST1 if table == fm else CONST0)
            else:
                ctable, perm, phase, out_neg = npn_canon(table, k)
                recipe = self.recipe(ctable, k)
                # Canonical input perm[i] is leaf i, complemented when
                # bit i of phase is set.
                leaf = [CONST0] * (1 + k)
                for i in range(k):
                    leaf[1 + perm[i]] = 2 * (1 + i) ^ ((phase >> i) & 1)

                def fold(lit: int) -> int:
                    var = lit >> 1
                    return leaf[var] ^ (lit & 1) if var <= k else lit

                # Programs share their fanin pairs: thousands of them
                # stay cached.
                nodes = tuple(
                    self._pairs.setdefault(pair, pair)
                    for pair in ((fold(f0), fold(f1)) for f0, f1 in recipe.nodes)
                )
                found = (nodes, fold(recipe.out) ^ out_neg)
            self._instances[key] = found
        return found

    def __len__(self) -> int:
        return len(self._recipes)


_LIBRARY: NpnLibrary = None


def get_library() -> NpnLibrary:
    """The process-wide shared library instance."""
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = NpnLibrary()
    return _LIBRARY
