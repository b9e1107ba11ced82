"""Table III + Fig. 1: the main per-team comparison.

Regenerates the paper's central table — average test accuracy, AND
count, levels and overfit per team — by running all ten flows over the
scaled benchmark suite, and prints the Fig. 1 technique matrix.

Paper values (full scale): Team 1 wins at 88.69% average accuracy;
accuracies spread over ~62-89%; overfit gaps are mostly small; Team 10
produces by far the smallest circuits (140 ANDs average).  At reduced
scale the asserted *shapes* are: (a) everyone beats chance, (b)
matching-equipped teams (1, 7) land at or near the top, (c) Team 10's
average size stays far below the cap, (d) every circuit is legal.
"""

from _report import echo
from repro.analysis import format_table3, table3
from repro.flows import TECHNIQUE_NAMES, TECHNIQUES


def test_table3(contest_run, scale):
    rows = table3(contest_run.scores_by_team)
    echo(f"\n=== Table III (scale={scale['name']}) ===")
    echo(format_table3(rows))

    by_team = {r["team"]: r for r in rows}
    # (a) every team clearly beats chance on average.
    for r in rows:
        assert r["test_accuracy"] > 0.55, r["team"]
    # (b) the matching-equipped flows (teams 1 and 7) rank high: at
    # least one of them is in the top three.
    top3 = {rows[i]["team"] for i in range(3)}
    assert top3 & {"team01", "team07"}
    # (c) Team 10's circuits are small, far below the 5000 cap.
    assert by_team["team10"]["and_gates"] < 500
    # (d) all submitted circuits are legal.
    for r in rows:
        assert r["legal_fraction"] == 1.0, r["team"]
    # (e) overfit gaps are bounded (the paper's worst is 8.7%; leave
    # slack for the small sample sizes).
    for r in rows:
        assert abs(r["overfit"]) < 0.2, r["team"]


def test_per_category_accuracy(contest_run, scale):
    """Section V's qualitative per-category observations, quantified:
    learners do worst on the arithmetic categories and best on the
    saturating ones (comparators, symmetric with matching teams)."""
    from repro.analysis import per_category_table
    from repro.contest import DEFAULT_REGISTRY

    categories = {
        spec.name: spec.category
        for spec in map(DEFAULT_REGISTRY.by_index, range(100))
    }
    table = per_category_table(contest_run.scores_by_team, categories)
    cats = sorted({c for row in table.values() for c in row})
    echo(f"\n=== per-category mean accuracy (scale={scale['name']}) ===")
    echo("  team    " + " ".join(c[:8].rjust(9) for c in cats))
    for team in sorted(table):
        cells = " ".join(
            f"{100 * table[team].get(c, float('nan')):8.1f}%" for c in cats
        )
        echo(f"  {team} {cells}")
    # The matching teams ace whatever arithmetic category is present.
    arithmetic = [c for c in cats if c in ("adder", "comparator")]
    for cat in arithmetic:
        best = max(table[t].get(cat, 0.0) for t in table)
        assert best > 0.9, f"someone should ace {cat}"


def test_fig1_technique_matrix():
    matrix = TECHNIQUES
    echo("\n=== Fig. 1: representation/technique matrix ===")
    header = "          " + " ".join(
        name[:7].rjust(8) for name in TECHNIQUE_NAMES
    )
    echo(header)
    for team in sorted(matrix):
        marks = " ".join(
            ("x" if name in matrix[team] else ".").rjust(8)
            for name in TECHNIQUE_NAMES
        )
        echo(f"  {team}  {marks}")
    # The paper's observations: DTs are the most popular technique;
    # only teams 1 and 7 match standard functions; no two identical
    # portfolios.
    dt_users = [t for t, s in matrix.items() if "decision tree" in s]
    assert len(dt_users) >= 6
    matchers = {t for t, s in matrix.items() if "function matching" in s}
    assert matchers == {"team01", "team07"}
