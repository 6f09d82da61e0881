"""The flat-vector training step, held bitwise to a per-array oracle.

An :class:`MLP` keeps all parameters in one float64 vector and all gradients
in another, and its optimizers run one in-place chain over them.  The oracle
below is the per-array sequence that layout replaced: each layer owns its
arrays, zeroes them separately, runs the full backward (including the first
layer's input gradient), clips array by array and updates each array with an
optimizer body that allocates its temporaries.  Every float operation is the
same, so every result must be equal bit for bit.
"""

import numpy as np
import pytest

from repro.agents.dqn import DQNAgent, DQNConfig
from repro.nn.network import MLP
from repro.nn.optimizers import SGD, Adam, RMSProp


class OracleNetwork:
    """Per-layer parameter arrays driven by the per-array update sequence."""

    def __init__(self, network: MLP, optimizer: str, **hyper) -> None:
        self.layers = network.layers  # activations only; arrays are copied
        self.weights = [layer.weights.copy() for layer in network.layers]
        self.biases = [layer.biases.copy() for layer in network.layers]
        self.weight_grads = [np.zeros_like(w) for w in self.weights]
        self.bias_grads = [np.zeros_like(b) for b in self.biases]
        self.optimizer = optimizer
        self.hyper = hyper
        self.steps = 0
        self.state = {}

    def forward(self, inputs):
        self.cache = []
        outputs = inputs
        for layer, weights, biases in zip(self.layers, self.weights, self.biases):
            pre = outputs @ weights + biases
            post = layer.activation.forward(pre)
            self.cache.append((outputs, pre, post))
            outputs = post
        return outputs

    def gradient_step(self, output_grad, max_grad_norm):
        for grads in (self.weight_grads, self.bias_grads):
            for grad in grads:
                grad.fill(0.0)
        grad = output_grad
        for index in reversed(range(len(self.layers))):
            inputs, pre, post = self.cache[index]
            derivative = self.layers[index].activation.derivative_from_output(pre, post)
            local = grad * derivative
            self.weight_grads[index] += inputs.T @ local
            self.bias_grads[index] += local.sum(axis=0)
            grad = local @ self.weights[index].T
        norm = None
        if max_grad_norm is not None:
            total = 0.0
            for weight_grad, bias_grad in zip(self.weight_grads, self.bias_grads):
                total += float(np.sum(weight_grad**2))
                total += float(np.sum(bias_grad**2))
            norm = float(np.sqrt(total))
            if norm > max_grad_norm and norm > 0:
                scale = max_grad_norm / norm
                for weight_grad, bias_grad in zip(self.weight_grads, self.bias_grads):
                    weight_grad *= scale
                    bias_grad *= scale
        self.steps += 1
        for index in range(len(self.layers)):
            self._update((index, "weights"), self.weights[index], self.weight_grads[index])
            self._update((index, "biases"), self.biases[index], self.bias_grads[index])
        return norm

    def _update(self, key, parameter, gradient):
        h = self.hyper
        if self.optimizer == "sgd":
            if h["momentum"] > 0.0:
                velocity = self.state.setdefault(key, np.zeros_like(parameter))
                velocity *= h["momentum"]
                velocity -= h["learning_rate"] * gradient
                parameter += velocity
            else:
                parameter -= h["learning_rate"] * gradient
        elif self.optimizer == "rmsprop":
            square_avg = self.state.setdefault(key, np.zeros_like(parameter))
            square_avg *= h["decay"]
            square_avg += (1.0 - h["decay"]) * gradient**2
            parameter -= (
                h["learning_rate"] * gradient / (np.sqrt(square_avg) + h["epsilon"])
            )
        else:
            first, second = self.state.setdefault(
                key, (np.zeros_like(parameter), np.zeros_like(parameter))
            )
            first *= h["beta1"]
            first += (1.0 - h["beta1"]) * gradient
            second *= h["beta2"]
            second += (1.0 - h["beta2"]) * gradient**2
            first_hat = first / (1.0 - h["beta1"] ** self.steps)
            second_hat = second / (1.0 - h["beta2"] ** self.steps)
            parameter -= (
                h["learning_rate"] * first_hat / (np.sqrt(second_hat) + h["epsilon"])
            )

    def flat_state(self, part=None):
        """The oracle's per-array state laid out like the flat vector."""
        pieces = []
        for index in range(len(self.layers)):
            for name in ("weights", "biases"):
                value = self.state[(index, name)]
                pieces.append((value if part is None else value[part]).ravel())
        return np.concatenate(pieces)


def optimizer_state(optimizer):
    """The flat optimizer's state arrays (one key: the network's flat group)."""
    key = (0, "parameters")
    if isinstance(optimizer, Adam):
        return optimizer._first_moment[key], optimizer._second_moment[key]
    if isinstance(optimizer, RMSProp):
        return (optimizer._square_avg[key],)
    return (optimizer._velocity[key],) if optimizer.momentum > 0.0 else ()


OPTIMIZERS = {
    "adam": (Adam, dict(learning_rate=1e-2, beta1=0.9, beta2=0.999, epsilon=1e-8)),
    "rmsprop": (RMSProp, dict(learning_rate=1e-2, decay=0.99, epsilon=1e-8)),
    "sgd": (SGD, dict(learning_rate=5e-2, momentum=0.0)),
    "sgd_momentum": (SGD, dict(learning_rate=5e-2, momentum=0.9)),
}

ARCHITECTURES = [
    ([5, 8, 3], "relu"),
    ([6, 16, 12, 4], "relu"),
    ([4, 7, 5, 2], "tanh"),
]


@pytest.mark.parametrize("architecture", ARCHITECTURES, ids=lambda a: f"{a[0]}-{a[1]}")
@pytest.mark.parametrize("optimizer_name", sorted(OPTIMIZERS))
@pytest.mark.parametrize("max_grad_norm", [None, 1.0], ids=["noclip", "clip"])
def test_flat_gradient_steps_match_per_array_oracle(
    architecture, optimizer_name, max_grad_norm
):
    sizes, activation = architecture
    cls, hyper = OPTIMIZERS[optimizer_name]
    kwargs = {k: v for k, v in hyper.items() if k != "learning_rate"}
    optimizer = cls(hyper["learning_rate"], **kwargs)
    oracle_kind = optimizer_name.split("_")[0]
    network = MLP(sizes, hidden_activation=activation, seed=11)
    oracle = OracleNetwork(network, oracle_kind, **hyper)
    rng = np.random.default_rng(5)
    norms = []
    for step in range(20):
        inputs = rng.normal(size=(9, sizes[0]))
        # Gradient scales sweep three decades so that some steps clip and
        # others do not.
        output_grad = rng.normal(size=(9, sizes[-1])) * 10.0 ** (step % 4 - 2)
        outputs = network.forward(inputs, training=True)
        assert np.array_equal(outputs, oracle.forward(inputs))
        network.apply_gradient_step(output_grad, optimizer, max_grad_norm)
        norms.append(oracle.gradient_step(output_grad, max_grad_norm))
        for layer, weights, biases in zip(network.layers, oracle.weights, oracle.biases):
            assert np.array_equal(layer.weights, weights)
            assert np.array_equal(layer.biases, biases)
    if max_grad_norm is not None:
        assert any(norm > max_grad_norm for norm in norms)
        assert any(norm <= max_grad_norm for norm in norms)
    state = optimizer_state(optimizer)
    if oracle_kind == "adam":
        assert np.array_equal(state[0], oracle.flat_state(0))
        assert np.array_equal(state[1], oracle.flat_state(1))
    elif state:
        assert np.array_equal(state[0], oracle.flat_state())


def test_optimizer_state_is_created_once_per_key():
    network = MLP([4, 6, 2], seed=0)
    optimizer = Adam(1e-3)
    inputs = np.ones((3, 4))
    network.forward(inputs, training=True)
    network.apply_gradient_step(np.ones((3, 2)), optimizer)
    first = optimizer._first_moment[(0, "parameters")]
    network.forward(inputs, training=True)
    network.apply_gradient_step(np.ones((3, 2)), optimizer)
    assert optimizer._first_moment[(0, "parameters")] is first
    assert optimizer.state_size() == 2


@pytest.mark.parametrize("tau", [1.0, 0.3])
def test_copy_from_equals_rebinding_formula(tau):
    source = MLP([5, 9, 4], seed=1)
    target = MLP([5, 9, 4], seed=2)
    expected = [
        (
            tau * theirs.weights + (1.0 - tau) * mine.weights,
            tau * theirs.biases + (1.0 - tau) * mine.biases,
        )
        for mine, theirs in zip(target.layers, source.layers)
    ]
    target.copy_from(source, tau=tau)
    for layer, (weights, biases) in zip(target.layers, expected):
        assert np.array_equal(layer.weights, weights)
        assert np.array_equal(layer.biases, biases)


def assert_layers_alias_flat_vectors(network):
    for layer in network.layers:
        for array in (layer.weights, layer.biases):
            assert np.shares_memory(array, network.flat_parameters)
        for array in (layer.weight_grad, layer.bias_grad):
            assert np.shares_memory(array, network.flat_gradients)
    assert network.flat_parameters.size == network.parameter_count()


class TestAliasing:
    def test_set_parameters_writes_through(self):
        network = MLP([3, 5, 2], seed=0)
        parameters = MLP([3, 5, 2], seed=1).get_parameters()
        network.set_parameters(parameters)
        assert_layers_alias_flat_vectors(network)
        assert np.array_equal(network.layers[1].weights, parameters[1]["weights"])

    def test_copy_from_and_clone_keep_views(self):
        source = MLP([3, 5, 2], seed=0)
        target = MLP([3, 5, 2], seed=1)
        target.copy_from(source, tau=1.0)
        target.copy_from(source, tau=0.5)
        assert_layers_alias_flat_vectors(target)
        clone = source.clone()
        assert_layers_alias_flat_vectors(clone)
        assert np.array_equal(clone.flat_parameters, source.flat_parameters)
        assert not np.shares_memory(clone.flat_parameters, source.flat_parameters)

    def test_load_keeps_views(self, tmp_path):
        network = MLP([3, 5, 2], seed=0)
        loaded = MLP.load(network.save(tmp_path / "net.npz"))
        assert_layers_alias_flat_vectors(loaded)
        assert np.array_equal(loaded.flat_parameters, network.flat_parameters)

    def test_dqn_target_sync_keeps_views(self):
        config = DQNConfig(
            hidden_layers=(8,), batch_size=4, min_replay_size=4, target_update_interval=1
        )
        agent = DQNAgent(3, 4, config=config, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(8):
            agent.observe(rng.normal(size=3), 1, 1.0, rng.normal(size=3), False)
            agent.update()
        assert agent.training_steps > 0
        for network in (agent.online_network, agent.target_network):
            assert_layers_alias_flat_vectors(network)
        assert np.array_equal(
            agent.target_network.flat_parameters, agent.online_network.flat_parameters
        )

    def test_zero_grad_clears_every_layer(self):
        network = MLP([3, 5, 2], seed=0)
        network.forward(np.ones((2, 3)), training=True)
        network.backward(np.ones((2, 2)))
        assert network.flat_gradients.any()
        network.zero_grad()
        for layer in network.layers:
            assert not layer.weight_grad.any() and not layer.bias_grad.any()

    def test_public_backward_still_returns_the_input_gradient(self):
        network = MLP([3, 5, 2], seed=0)
        network.forward(np.ones((2, 3)), training=True)
        assert network.backward(np.ones((2, 2))).shape == (2, 3)
