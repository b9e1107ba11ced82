"""Export the benchmark suite as contest-format PLA files.

The organizers distributed each benchmark as ``exNN.train.pla``,
``exNN.valid.pla`` and ``exNN.test.pla``; this module recreates that
layout so downstream tools (or the original contest submissions) can
consume our suite directly:

    python -m repro.contest.export --out-dir ./iwls2020 \
        --indices 0 30 74 --samples 6400
"""

from __future__ import annotations

import argparse
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.contest.registry import DEFAULT_REGISTRY
from repro.twolevel.pla import write_pla


def export_benchmarks(
    out_dir: Path,
    indices: Sequence[int] | None = None,
    samples: int = 6400,
    master_seed: int = 0,
) -> Iterable[Path]:
    """Write the train/valid/test PLA triple per benchmark index.

    Every index is resolved before any file is written, so an index
    outside 0..99 raises ``IndexError`` and leaves ``out_dir`` as it
    was.
    """
    specs = [
        DEFAULT_REGISTRY.by_index(idx)
        for idx in (indices if indices is not None else range(100))
    ]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for spec in specs:
        problem = DEFAULT_REGISTRY.problem(
            spec, n_train=samples, n_valid=samples, n_test=samples,
            master_seed=master_seed,
        )
        for split, data in (
            ("train", problem.train),
            ("valid", problem.valid),
            ("test", problem.test),
        ):
            path = out_dir / f"{spec.name}.{split}.pla"
            write_pla(data.to_pla(), path)
            written.append(path)
    return written


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--indices", type=int, nargs="*", default=None)
    parser.add_argument("--samples", type=int, default=6400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        written = export_benchmarks(
            args.out_dir, args.indices, args.samples, args.seed
        )
    except IndexError as exc:
        parser.error(str(exc))
    print(f"wrote {len(list(written))} PLA files to {args.out_dir}")


if __name__ == "__main__":
    main()
