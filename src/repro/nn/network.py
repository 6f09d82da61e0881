"""Multi-layer perceptrons with manual backpropagation.

The :class:`MLP` is the function approximator used by every deep agent in the
library (Q-networks, policy networks, value baselines).  It supports

* batched forward passes over ``(batch, features)`` arrays,
* backpropagation from an arbitrary output gradient,
* a convenience :meth:`fit_batch` for supervised regression steps,
* :meth:`apply_gradient_step` — the fused ``zero_grad → backward → clip →
  optimizer step`` sequence agents run once per minibatch, with one optimizer
  chain over the network's flat parameter vector,
* cloning and soft/hard parameter copying (for target networks), and
* save/load to ``.npz`` files.

>>> network = MLP([4, 32, 2], seed=0)
>>> outputs = network(np.zeros((64, 4)))          # (64, 2) batched forward
>>> loss = network.fit_batch(inputs, targets, optimizer=Adam(1e-3))
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.nn.layers import DenseLayer
from repro.nn.losses import Loss, MSELoss
from repro.nn.optimizers import Optimizer, ParameterGroup, clip_gradients
from repro.utils.rng import RandomState, new_rng, spawn_rngs


class MLP:
    """A feed-forward network of :class:`DenseLayer` objects.

    Parameters
    ----------
    layer_sizes:
        Widths including input and output, e.g. ``[64, 128, 128, 10]``.
    hidden_activation:
        Activation used by all hidden layers.
    output_activation:
        Activation of the final layer (``identity`` for value heads).
    seed:
        Seed controlling weight initialization.

    All parameters live in one contiguous float64 vector,
    :attr:`flat_parameters`, and their gradients in :attr:`flat_gradients`;
    every layer's ``weights``, ``biases``, ``weight_grad`` and ``bias_grad``
    are views into them, so zeroing, optimizer steps and target copies are
    single operations over the vectors.  ``copy.deepcopy`` or pickling
    would copy the views as independent arrays and break that aliasing.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation: str = "relu",
        output_activation: str = "identity",
        seed: RandomState = None,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes must contain at least input and output widths")
        if any(size <= 0 for size in layer_sizes):
            raise ValueError(f"all layer sizes must be positive, got {layer_sizes}")
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation

        rngs = spawn_rngs(seed, len(self.layer_sizes) - 1)
        self.layers: List[DenseLayer] = []
        for index in range(len(self.layer_sizes) - 1):
            is_output = index == len(self.layer_sizes) - 2
            self.layers.append(
                DenseLayer(
                    in_features=self.layer_sizes[index],
                    out_features=self.layer_sizes[index + 1],
                    activation=output_activation if is_output else hidden_activation,
                    seed=rngs[index],
                )
            )
        total = sum(layer.parameter_count() for layer in self.layers)
        self.flat_parameters = np.empty(total)
        self.flat_gradients = np.zeros(total)
        offset = 0
        for layer in self.layers:
            end = offset + layer.parameter_count()
            layer.share_buffers(
                self.flat_parameters[offset:end], self.flat_gradients[offset:end]
            )
            offset = end
        self._flat_group: List[ParameterGroup] = [
            ({"parameters": self.flat_parameters}, {"parameters": self.flat_gradients})
        ]

    # ------------------------------------------------------------------ #
    # Shapes
    # ------------------------------------------------------------------ #
    @property
    def input_dim(self) -> int:
        """Width of the input layer."""
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        """Width of the output layer."""
        return self.layer_sizes[-1]

    def parameter_count(self) -> int:
        """Total number of scalar parameters."""
        return self.flat_parameters.size

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a batched forward pass; accepts (batch, in) or (in,) inputs."""
        inputs = np.asarray(inputs, dtype=float)
        squeeze = inputs.ndim == 1
        outputs = np.atleast_2d(inputs)
        for layer in self.layers:
            outputs = layer.forward(outputs, training=training)
        return outputs[0] if squeeze else outputs

    __call__ = forward

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass (no caches stored)."""
        return self.forward(inputs, training=False)

    def backward(self, output_grad: np.ndarray) -> np.ndarray:
        """Backpropagate an output gradient, returning the input gradient."""
        grad = np.atleast_2d(np.asarray(output_grad, dtype=float))
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grad(self) -> None:
        """Reset accumulated gradients in every layer."""
        self.flat_gradients.fill(0.0)

    def apply_gradient_step(
        self,
        output_grad: np.ndarray,
        optimizer: Optimizer,
        max_grad_norm: Optional[float] = None,
    ) -> None:
        """Backpropagate ``output_grad`` and apply one optimizer step.

        Consolidates the ``zero_grad → backward → clip → step`` sequence every
        agent update performs, so callers that compute their own output
        gradient (policy gradients, masked TD regression) need exactly one
        call after the training-mode forward pass.  The first layer's input
        gradient is never computed, clipping keeps its per-array order, and
        the optimizer sees one ``(flat parameters, flat gradients)`` group.
        """
        self.zero_grad()
        grad = np.atleast_2d(np.asarray(output_grad, dtype=float))
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].accumulate_gradients(grad)
        if max_grad_norm is not None:
            clip_gradients(self.parameter_groups(), max_grad_norm)
        optimizer.step(self._flat_group)

    def parameter_groups(self) -> List[ParameterGroup]:
        """Per-layer (parameters, gradients) pairs of views into the flat vectors."""
        return [(layer.parameters(), layer.gradients()) for layer in self.layers]

    # ------------------------------------------------------------------ #
    # Supervised step
    # ------------------------------------------------------------------ #
    def fit_batch(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        optimizer: Optimizer,
        loss: Optional[Loss] = None,
        sample_weights: Optional[np.ndarray] = None,
        target_mask: Optional[np.ndarray] = None,
        max_grad_norm: Optional[float] = 10.0,
    ) -> float:
        """One gradient step of (optionally masked) regression.

        ``target_mask`` restricts the loss to selected output units — the DQN
        update only regresses the Q-value of the action actually taken, so
        the mask is 1 for that action's output and 0 elsewhere.
        """
        loss = loss or MSELoss()
        predictions = self.forward(inputs, training=True)
        predictions = np.atleast_2d(predictions)
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if target_mask is not None:
            target_mask = np.atleast_2d(np.asarray(target_mask, dtype=float))
            # Replace masked-out targets by the predictions so they contribute
            # zero error and zero gradient.
            targets = target_mask * targets + (1.0 - target_mask) * predictions
        value, grad = loss.value_and_grad(predictions, targets, sample_weights)
        self.apply_gradient_step(grad, optimizer, max_grad_norm)
        return value

    # ------------------------------------------------------------------ #
    # Parameter copying (target networks)
    # ------------------------------------------------------------------ #
    def get_parameters(self) -> List[Dict[str, np.ndarray]]:
        """Deep copies of all layer parameters."""
        return [
            {name: array.copy() for name, array in layer.parameters().items()}
            for layer in self.layers
        ]

    def set_parameters(self, parameters: List[Dict[str, np.ndarray]]) -> None:
        """Load parameters previously produced by :meth:`get_parameters`."""
        if len(parameters) != len(self.layers):
            raise ValueError(
                f"expected {len(self.layers)} layer parameter dicts, got {len(parameters)}"
            )
        for layer, params in zip(self.layers, parameters):
            layer.set_parameters(params)

    def copy_from(self, other: "MLP", tau: float = 1.0) -> None:
        """Copy (or Polyak-average) parameters from another network.

        ``tau = 1`` performs a hard copy; ``tau < 1`` performs the soft update
        ``θ ← τ θ_other + (1 − τ) θ`` used by soft target networks.  Both
        evaluate that formula over the flat vector (``tau = 1`` included), in
        place; float addition commutes, so the bits are the formula's.
        """
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {tau}")
        if other.layer_sizes != self.layer_sizes:
            raise ValueError(
                f"architecture mismatch: {other.layer_sizes} vs {self.layer_sizes}"
            )
        theirs = tau * other.flat_parameters
        self.flat_parameters *= 1.0 - tau
        self.flat_parameters += theirs

    def clone(self, seed: RandomState = None) -> "MLP":
        """A new network with the same architecture and copied parameters."""
        other = MLP(
            self.layer_sizes,
            hidden_activation=self.hidden_activation,
            output_activation=self.output_activation,
            seed=seed if seed is not None else new_rng(0),
        )
        other.flat_parameters[...] = self.flat_parameters
        return other

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Persist architecture and parameters to a ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays: Dict[str, np.ndarray] = {
            "layer_sizes": np.array(self.layer_sizes, dtype=int),
        }
        meta = np.array([self.hidden_activation, self.output_activation])
        arrays["activations"] = meta
        for index, layer in enumerate(self.layers):
            arrays[f"weights_{index}"] = layer.weights
            arrays[f"biases_{index}"] = layer.biases
        np.savez(path, **arrays)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "MLP":
        """Load a network previously produced by :meth:`save`."""
        data = np.load(Path(path), allow_pickle=False)
        layer_sizes = data["layer_sizes"].tolist()
        hidden_activation, output_activation = (str(x) for x in data["activations"])
        network = cls(
            layer_sizes,
            hidden_activation=hidden_activation,
            output_activation=output_activation,
            seed=0,
        )
        for index, layer in enumerate(network.layers):
            layer.set_parameters(
                {
                    "weights": data[f"weights_{index}"],
                    "biases": data[f"biases_{index}"],
                }
            )
        return network

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MLP(sizes={self.layer_sizes}, hidden={self.hidden_activation}, "
            f"output={self.output_activation}, params={self.parameter_count()})"
        )
