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
function to its recipe and the NPN transform that wires the cut's
leaves to the recipe's inputs; the rewriting pass prices every
candidate with :func:`~repro.aig.opt.counting.price` and builds only
the winner, so it never mutates the graph to measure a gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.aig import AIG, CONST0
from repro.aig.isop import full_mask
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
        # (k, table) -> (recipe, perm, phase, out_neg): canonicalization
        # and recipe lookup collapsed into one dict hit, since lookup()
        # runs hundreds of thousands of times per pass.
        self._instances: dict[tuple[int, int], tuple] = {}

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
    def lookup(self, table: int, k: int) -> tuple[Recipe, tuple[int, ...], int, bool]:
        """``(recipe, perm, phase, out_neg)`` realizing a ``k``-input table.

        Canonical input ``perm[i]`` is driven by leaf ``i``,
        complemented when bit ``i`` of ``phase`` is set, and the
        recipe's output is complemented when ``out_neg`` is set.  The
        constant tables map to an empty recipe.
        """
        key = (k, table)
        found = self._instances.get(key)
        if found is None:
            fm = full_mask(k)
            table &= fm
            if table == 0 or table == fm:
                found = (Recipe(k, (), CONST0, 0), tuple(range(k)), 0, table == fm)
            else:
                ctable, perm, phase, out_neg = npn_canon(table, k)
                found = (self.recipe(ctable, k), perm, phase, out_neg)
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
