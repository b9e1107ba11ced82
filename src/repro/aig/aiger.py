"""ASCII AIGER (``.aag``) file support.

Implements the combinational subset of AIGER 1.9 [Biere et al.], which
is all the contest uses: no latches, no symbols required.
"""

from __future__ import annotations

from pathlib import Path

from repro.aig.aig import AIG

PathLike = str | Path


def dumps_aag(aig: AIG) -> str:
    """ASCII AIGER (.aag) text for an AIG (what :func:`write_aag`
    writes; the run store persists it without touching a temp file)."""
    maxvar = aig.num_vars - 1
    lines = [f"aag {maxvar} {aig.n_inputs} 0 {aig.num_outputs} {aig.num_ands}"]
    for i in range(aig.n_inputs):
        lines.append(str(aig.input_lit(i)))
    for lit in aig.outputs:
        lines.append(str(lit))
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        f0, f1 = aig.fanins(base + j)
        lines.append(f"{2 * (base + j)} {f0} {f1}")
    return "\n".join(lines) + "\n"


def write_aag(aig: AIG, path: PathLike) -> None:
    """Write an ASCII AIGER (.aag) file."""
    Path(path).write_text(dumps_aag(aig), encoding="ascii")


def read_aag(path: PathLike) -> AIG:
    """Read an ASCII AIGER (.aag) file (combinational subset)."""
    return loads_aag(Path(path).read_text(encoding="ascii"))


def loads_aag(text: str) -> AIG:
    """Parse ASCII AIGER text (the inverse of :func:`dumps_aag`).

    The serving layer loads circuits straight out of a run store's
    ``solutions/`` files (or any bundle of ``.aag`` text) without
    round-tripping through a temp file.  Malformed text raises
    ``ValueError`` naming the problem.
    """
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("c")]
    if not lines:
        raise ValueError("empty AIGER text")
    header = lines[0].split()
    if not header or header[0] != "aag":
        raise ValueError(f"not an ASCII AIGER file: header {lines[0]!r}")
    if len(header) < 6:
        raise ValueError(f"short AIGER header {lines[0]!r} (expected "
                         f"'aag M I L O A')")
    n_in, n_latch, n_out, n_and = (_int(f, lines[0]) for f in header[2:6])
    if n_latch:
        raise ValueError("latches are not supported")
    body = lines[1:1 + n_in + n_out + n_and]
    rows = [[_int(f, line) for f in line.split()] for line in body]
    if len(rows) < n_in + n_out + n_and:
        raise ValueError(
            f"truncated AIGER text: header declares {n_in + n_out + n_and}"
            f" literal lines, found {len(rows)}"
        )
    for i, row in enumerate(rows):
        if len(row) != (1 if i < n_in + n_out else 3):
            raise ValueError(f"malformed AIGER line {body[i]!r}")
    return _rebuild(
        n_in,
        [row[0] for row in rows[:n_in]],
        [row[0] for row in rows[n_in:n_in + n_out]],
        [tuple(row) for row in rows[n_in + n_out:]],
    )


def _int(field: str, line: str) -> int:
    """One non-negative integer field of AIGER line ``line``.

    ASCII digits only: ``int()`` alone would also take ``+2``, ``1_0``
    and non-ASCII digits, which are not AIGER.
    """
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"bad field {field!r} in AIGER line {line!r}")
    return int(field)


def _rebuild(n_in, input_lits, output_lits, and_rows) -> AIG:
    """Reconstruct an AIG from parsed literal rows.

    AIGER files may use arbitrary variable numbering; we remap through
    a literal translation table while re-strashing.  Inputs and AND
    left-hand sides must be fresh, even, non-constant literals, and
    every fanin or output literal must already be defined.
    """
    aig = AIG(n_in)
    lit_map = {0: 0, 1: 1}

    def define(lit: int, new: int, what: str) -> None:
        if lit & 1 or lit < 2:
            raise ValueError(f"{what} literal {lit} must be even and "
                             f"non-constant")
        if lit in lit_map:
            raise ValueError(f"{what} literal {lit} is already defined")
        lit_map[lit] = new
        lit_map[lit ^ 1] = new ^ 1

    def lookup(lit: int, what: str) -> int:
        try:
            return lit_map[lit]
        except KeyError:
            raise ValueError(f"undefined {what} literal {lit}") from None

    for i, lit in enumerate(input_lits):
        define(lit, aig.input_lit(i), "input")
    for lhs, rhs0, rhs1 in and_rows:
        new = aig.add_and(lookup(rhs0, "fanin"), lookup(rhs1, "fanin"))
        define(lhs, new, "AND")
    for lit in output_lits:
        aig.set_output(lookup(lit, "output"))
    return aig
