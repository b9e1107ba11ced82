"""Multi-layer perceptrons with contest-specific extensions.

Covers three team roles:

* Team 3 prunes a 3-layer sigmoid MLP until every neuron has at most
  12 fanins, then converts neurons to LUTs
  (:meth:`MLP.prune_to_fanin`, fanin masks are persistent through
  retraining);
* Team 8 swaps ReLU for a *sine* activation to capture periodic
  structure (parity-like functions);
* Team 4 replaces the plain MLP with an AFN-style logarithmic
  interaction layer (:class:`LogInteractionNet`) that learns
  multiplicative cross-features of the selected inputs;
* Team 5 reads feature importances off the first-layer weights
  (:meth:`MLP.feature_importance`).

Everything is plain numpy with manual backprop and Adam.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_ACTIVATIONS = ("relu", "sigmoid", "tanh", "sine", "identity")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        # Bitwise the same as ``np.clip``, without its dispatch overhead.
        return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -30), 30)))
    if name == "tanh":
        return np.tanh(z)
    if name == "sine":
        return np.sin(z)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "tanh":
        return 1.0 - a * a
    if name == "sine":
        return np.cos(z)
    if name == "identity":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {name!r}")


class _Dense:
    """Fully connected layer with a persistent connection mask."""

    def __init__(self, n_in: int, n_out: int, activation: str,
                 rng: np.random.Generator):
        if activation == "sine":
            # Periodic activations need large first-moment weights or
            # sin(z) ~ z degenerates to a linear layer (the SIREN
            # omega_0 trick); parity needs weights near pi.
            scale = 2.0
        else:
            scale = np.sqrt(2.0 / max(1, n_in))
        self.W = rng.normal(0.0, scale, size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self.mask = np.ones_like(self.W)
        # While the mask is all ones, ``W * mask`` is ``W`` bit for bit,
        # so the multiplies are skipped until pruning clears a weight.
        self.unmasked = True
        self.activation = activation
        self._adam_state = None

    def masked(self) -> np.ndarray:
        """The weights with the pruned connections zeroed."""
        return self.W if self.unmasked else self.W * self.mask

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = x @ self.masked() + self.b
        return z, _act(self.activation, z)

    def init_adam(self):
        self._adam_state = [np.zeros_like(self.W), np.zeros_like(self.W),
                            np.zeros_like(self.b), np.zeros_like(self.b)]

    def adam_step(self, dW, db, lr, t):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        mW, vW, mb, vb = self._adam_state
        mW[:] = beta1 * mW + (1 - beta1) * dW
        vW[:] = beta2 * vW + (1 - beta2) * dW * dW
        mb[:] = beta1 * mb + (1 - beta1) * db
        vb[:] = beta2 * vb + (1 - beta2) * db * db
        mhW = mW / (1 - beta1**t)
        vhW = vW / (1 - beta2**t)
        mhb = mb / (1 - beta1**t)
        vhb = vb / (1 - beta2**t)
        self.W -= lr * mhW / (np.sqrt(vhW) + eps)
        self.b -= lr * mhb / (np.sqrt(vhb) + eps)
        if not self.unmasked:
            self.W *= self.mask


class MLP:
    """Binary classifier MLP (sigmoid output, cross-entropy loss)."""

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (64, 32),
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.hidden_sizes = tuple(hidden_sizes)
        self.activation = activation
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.layers: list[_Dense] = []
        self.n_inputs: int | None = None

    # ------------------------------------------------------------------
    def _build(self, n_inputs: int) -> None:
        sizes = [n_inputs, *self.hidden_sizes, 1]
        self.layers = []
        for i in range(len(sizes) - 1):
            act = self.activation if i < len(sizes) - 2 else "sigmoid"
            self.layers.append(_Dense(sizes[i], sizes[i + 1], act, self.rng))
        self.n_inputs = n_inputs

    def _forward_all(self, x):
        zs, acts = [], [x]
        for layer in self.layers:
            z, a = layer.forward(acts[-1])
            zs.append(z)
            acts.append(a)
        return zs, acts

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        epochs: int = 30,
        reset: bool = True,
    ) -> "MLP":
        """Adam on cross-entropy, minibatches of 64, learning rate 1e-3."""
        batch_size, lr = 64, 1e-3
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if reset or not self.layers:
            self._build(X.shape[1])
        for layer in self.layers:
            layer.init_adam()
        n = X.shape[0]
        t = 0
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb, yb = X[idx], y[idx]
                zs, acts = self._forward_all(xb)
                # Cross-entropy with sigmoid output: delta = p - y.
                delta = (acts[-1].ravel() - yb)[:, None] / len(idx)
                t += 1
                for li in reversed(range(len(self.layers))):
                    layer = self.layers[li]
                    if li < len(self.layers) - 1:
                        delta = delta * _act_grad(
                            layer.activation, zs[li], acts[li + 1]
                        )
                    dW = acts[li].T @ delta
                    if not layer.unmasked:
                        dW *= layer.mask
                    db = delta.sum(axis=0)
                    # The input layer passes no gradient further back.
                    back = delta @ layer.masked().T if li else None
                    layer.adam_step(dW, db, lr, t)
                    delta = back
        return self

    # ------------------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        x = np.asarray(X, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        for layer in self.layers:
            _, x = layer.forward(x)
        return x.ravel()

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.uint8)

    def feature_importance(self) -> np.ndarray:
        """Mean |weight| per input over the first layer (Team 5)."""
        first = self.layers[0]
        return np.abs(first.masked()).sum(axis=1)

    # ------------------------------------------------------------------
    def max_fanin(self) -> int:
        """Largest neuron fanin over all layers."""
        return max(
            int((layer.mask != 0).sum(axis=0).max(initial=0))
            for layer in self.layers
        )

    def prune_to_fanin(
        self,
        max_fanin: int,
        X: np.ndarray,
        y: np.ndarray,
        rounds: int = 3,
        retrain_epochs: int = 10,
    ) -> "MLP":
        """Iterative magnitude pruning until every fanin <= max_fanin.

        After each pruning round the network is retrained with the
        masks held fixed (Han et al.'s prune-retrain loop, as used by
        Team 3 to reach <= 12 fanins per neuron).
        """
        if not self.layers:
            raise RuntimeError("fit the network before pruning")
        for round_idx in range(rounds):
            frac = (round_idx + 1) / rounds
            changed = False
            for layer in self.layers:
                current = (layer.mask != 0).sum(axis=0)
                limit = np.maximum(
                    max_fanin,
                    np.ceil(current * (1 - frac) + max_fanin * frac),
                ).astype(int)
                for j in range(layer.W.shape[1]):
                    alive = np.nonzero(layer.mask[:, j])[0]
                    if alive.size <= limit[j]:
                        continue
                    weights = np.abs(layer.W[alive, j])
                    keep = alive[np.argsort(-weights)[: limit[j]]]
                    new_mask = np.zeros(layer.W.shape[0])
                    new_mask[keep] = 1.0
                    layer.mask[:, j] = new_mask
                    layer.unmasked = False
                    changed = True
                layer.W *= layer.mask
            if changed:
                self.fit(X, y, epochs=retrain_epochs, reset=False)
        return self


class LogInteractionNet(MLP):
    """AFN-style approximator: logarithmic interaction layer + MLP.

    Binary inputs are squashed to ``(0.05, 0.95)``; the first layer
    computes ``exp(W @ ln(x'))`` — each unit is an adaptive-order
    multiplicative cross-feature — and a small MLP combines the
    crossed features (Team 4's recommendation-model substitute).
    """

    def __init__(
        self,
        n_cross: int = 32,
        hidden_sizes: Sequence[int] = (64, 32),
        rng: np.random.Generator | None = None,
    ):
        super().__init__(hidden_sizes=hidden_sizes, activation="relu", rng=rng)
        self.n_cross = n_cross
        self.W_log: np.ndarray | None = None

    def _transform(self, X: np.ndarray) -> np.ndarray:
        x = np.asarray(X, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        eps = 0.05
        squashed = eps + (1.0 - 2.0 * eps) * x
        logs = np.log(squashed)
        crossed = np.exp(np.clip(logs @ self.W_log, -30.0, 10.0))
        return crossed

    def fit(self, X, y, epochs: int = 30,
            reset: bool = True) -> "LogInteractionNet":
        X = np.asarray(X, dtype=np.float64)
        if reset or self.W_log is None:
            # Sparse random +/- exponents pick interaction candidates;
            # the dense layers then learn how to combine them.
            self.W_log = self.rng.normal(
                0.0, 1.0, size=(X.shape[1], self.n_cross)
            ) * (self.rng.random((X.shape[1], self.n_cross)) < 0.3)
        crossed = self._transform(X)
        super().fit(crossed, y, epochs=epochs, reset=reset)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return super().predict_proba(self._transform(X))
