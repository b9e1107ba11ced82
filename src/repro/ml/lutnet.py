"""Memorization LUT networks [Chatterjee, "Learning and memorization"].

A LUT network is layers of k-input lookup tables with *random* wiring;
"training" is pure memorization: each LUT's table entry for a pattern
is the majority label of the training samples that present that
pattern at the LUT's inputs, computed layer by layer.  Teams 1 and 6
used this directly; Team 3 compared against it (Table IV's LUT-Net
row).

Two wiring schemes are supported, following Team 6: ``random`` draws
each connection independently from the previous layer, while
``unique`` guarantees every output of the previous layer is consumed
once before any is duplicated.
"""

from __future__ import annotations

import numpy as np


class LUTNetwork:
    """Randomly wired k-LUT layers trained by memorization."""

    def __init__(
        self,
        n_layers: int = 4,
        luts_per_layer: int = 128,
        lut_size: int = 4,
        scheme: str = "random",
        rng: np.random.Generator | None = None,
    ):
        if scheme not in ("random", "unique"):
            raise ValueError(f"unknown wiring scheme {scheme!r}")
        self.n_layers = n_layers
        self.luts_per_layer = luts_per_layer
        self.lut_size = lut_size
        self.scheme = scheme
        self.rng = rng if rng is not None else np.random.default_rng(0)
        # connections[l] has shape (width_l, k): indices into the
        # previous layer's outputs.  tables[l] has shape
        # (width_l, 2**k) of uint8.
        self.connections: list[np.ndarray] = []
        self.tables: list[np.ndarray] = []
        self.n_inputs: int | None = None

    # ------------------------------------------------------------------
    def _wire_layer(self, n_prev: int, width: int) -> np.ndarray:
        k = self.lut_size
        needed = width * k
        if self.scheme == "unique":
            pool = []
            while len(pool) < needed:
                pool.extend(self.rng.permutation(n_prev).tolist())
            wires = np.array(pool[:needed], dtype=np.int64)
        else:
            wires = self.rng.integers(0, n_prev, size=needed)
        return wires.reshape(width, k)

    def _layer_patterns(self, prev: np.ndarray, conns: np.ndarray) -> np.ndarray:
        """Pattern index of each (sample, lut): shape (n, width)."""
        weights = 1 << np.arange(self.lut_size)
        # prev: (n, n_prev); prev[:, conns]: (n, width, k)
        return (prev[:, conns].astype(np.int64) * weights).sum(axis=2)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LUTNetwork":
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.int64).ravel()
        self.n_inputs = X.shape[1]
        self.connections = []
        self.tables = []
        prev = X
        widths = [self.luts_per_layer] * self.n_layers + [1]
        n_patterns = 1 << self.lut_size
        for width in widths:
            conns = self._wire_layer(prev.shape[1], width)
            patterns = self._layer_patterns(prev, conns)
            tables = np.zeros((width, n_patterns), dtype=np.uint8)
            for j in range(width):
                pos = np.bincount(
                    patterns[:, j], weights=y, minlength=n_patterns
                )
                tot = np.bincount(patterns[:, j], minlength=n_patterns)
                # A pattern no sample presents (tot == 0) stores 0.
                tables[j] = 2 * pos > tot
            self.connections.append(conns)
            self.tables.append(tables)
            prev = np.take_along_axis(
                tables.T, patterns, axis=0
            ).astype(np.uint8)
        return self

    # ------------------------------------------------------------------
    def forward(self, X: np.ndarray) -> np.ndarray:
        """Values of the final layer (single column)."""
        prev = np.asarray(X, dtype=np.uint8)
        if prev.ndim == 1:
            prev = prev[None, :]
        for conns, tables in zip(self.connections, self.tables, strict=True):
            patterns = self._layer_patterns(prev, conns)
            prev = np.take_along_axis(tables.T, patterns, axis=0)
            prev = prev.astype(np.uint8)
        return prev

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[:, 0]
