"""Dense layers with manual backpropagation.

The layer stores its parameters and, after a forward pass in training mode,
the cached inputs/pre-activations needed to compute gradients.  Parameters
and gradients are exposed as dictionaries so optimizers can treat networks
generically.  A standalone layer owns its arrays; inside an
:class:`~repro.nn.network.MLP` they are views into the network's flat
parameter and gradient vectors (see :meth:`DenseLayer.share_buffers`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.activations import Activation, Identity, get_activation
from repro.utils.rng import RandomState, new_rng


class DenseLayer:
    """A fully connected layer ``y = activation(x W + b)``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    activation:
        An :class:`Activation` instance, an activation name, or ``None``
        for identity.
    seed:
        Seed for weight initialization (He-uniform for ReLU-family, Xavier
        otherwise).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Optional[object] = "relu",
        seed: RandomState = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"layer dimensions must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        if activation is None:
            self.activation: Activation = Identity()
        elif isinstance(activation, Activation):
            self.activation = activation
        else:
            self.activation = get_activation(str(activation))

        rng = new_rng(seed)
        if self.activation.name in ("relu", "leaky_relu"):
            scale = np.sqrt(2.0 / in_features)
        else:
            scale = np.sqrt(1.0 / in_features)
        self.weights = rng.normal(0.0, scale, size=(in_features, out_features))
        self.biases = np.zeros(out_features)

        self._cached_input: Optional[np.ndarray] = None
        self._cached_pre_activation: Optional[np.ndarray] = None
        self._cached_output: Optional[np.ndarray] = None
        self.weight_grad = np.zeros_like(self.weights)
        self.bias_grad = np.zeros_like(self.biases)

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute the layer output for a batch of inputs (batch, in_features)."""
        if not (
            type(inputs) is np.ndarray and inputs.ndim == 2 and inputs.dtype == np.float64
        ):
            inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape[1] != self.in_features:
            raise ValueError(
                f"expected input width {self.in_features}, got {inputs.shape[1]}"
            )
        pre_activation = inputs @ self.weights
        pre_activation += self.biases
        output = self.activation.forward(pre_activation)
        if training:
            self._cached_input = inputs
            self._cached_pre_activation = pre_activation
            self._cached_output = output
        return output

    def backward(self, upstream_grad: np.ndarray) -> np.ndarray:
        """Backpropagate ``d loss / d output`` and return ``d loss / d input``.

        Parameter gradients are accumulated into ``weight_grad`` /
        ``bias_grad`` (callers zero them between updates via
        :meth:`zero_grad`).
        """
        return self.accumulate_gradients(upstream_grad) @ self.weights.T

    def accumulate_gradients(self, upstream_grad: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients; return ``d loss / d pre-activation``.

        The parameter half of :meth:`backward`, for a first layer whose input
        gradient nobody reads.
        """
        if self._cached_input is None or self._cached_pre_activation is None:
            raise RuntimeError("backward() called before a training-mode forward()")
        upstream_grad = np.atleast_2d(np.asarray(upstream_grad, dtype=float))
        local_grad = upstream_grad * self.activation.derivative_from_output(
            self._cached_pre_activation, self._cached_output
        )
        self.weight_grad += self._cached_input.T @ local_grad
        self.bias_grad += local_grad.sum(axis=0)
        return local_grad

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients to zero."""
        self.weight_grad.fill(0.0)
        self.bias_grad.fill(0.0)

    # ------------------------------------------------------------------ #
    # Parameter access
    # ------------------------------------------------------------------ #
    def parameters(self) -> Dict[str, np.ndarray]:
        """Live references to the layer's parameters."""
        return {"weights": self.weights, "biases": self.biases}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Live references to the layer's accumulated gradients."""
        return {"weights": self.weight_grad, "biases": self.bias_grad}

    def set_parameters(self, params: Dict[str, np.ndarray]) -> None:
        """Copy parameter values from ``params`` into the layer's own arrays.

        Shapes must match.  The arrays are written in place, never rebound,
        so a layer whose parameters are views into a network's flat vector
        stays aliased to it.
        """
        if params["weights"].shape != self.weights.shape:
            raise ValueError(
                f"weight shape mismatch: {params['weights'].shape} vs {self.weights.shape}"
            )
        if params["biases"].shape != self.biases.shape:
            raise ValueError(
                f"bias shape mismatch: {params['biases'].shape} vs {self.biases.shape}"
            )
        self.weights[...] = params["weights"]
        self.biases[...] = params["biases"]

    def share_buffers(self, parameters: np.ndarray, gradients: np.ndarray) -> None:
        """Move parameters and gradients into caller-owned 1-D buffers.

        Each buffer holds :meth:`parameter_count` float64 entries, the
        row-major weights first, then the biases.  The current values are
        copied in, and ``weights``, ``biases``, ``weight_grad`` and
        ``bias_grad`` become views into the two buffers.
        """
        split = self.weights.size
        shape = self.weights.shape
        parameters[:split] = self.weights.ravel()
        parameters[split:] = self.biases
        gradients[:split] = self.weight_grad.ravel()
        gradients[split:] = self.bias_grad
        self.weights = parameters[:split].reshape(shape)
        self.biases = parameters[split:]
        self.weight_grad = gradients[:split].reshape(shape)
        self.bias_grad = gradients[split:]

    def parameter_count(self) -> int:
        """Total number of scalar parameters in the layer."""
        return self.weights.size + self.biases.size

    def config(self) -> Dict[str, object]:
        """Architecture description used by network serialization."""
        return {
            "in_features": self.in_features,
            "out_features": self.out_features,
            "activation": self.activation.name,
        }
