"""Report collector for the experiment benches.

pytest captures stdout, so tables printed inside bench tests would be
invisible in the default ``pytest -q benchmarks/bench_*.py`` run.
Benches call :func:`echo` instead of ``print``; the collected blocks
are re-emitted by the ``pytest_terminal_summary`` hook in conftest so
every reproduced table/figure appears at the end of the run.
"""


_LINES: list[str] = []


def echo(*parts: object) -> None:
    """Print-alike that also records the line for the summary."""
    line = " ".join(str(p) for p in parts)
    _LINES.append(line)
    print(line)


def drain() -> list[str]:
    return list(_LINES)
