"""Layer and model containers.

The design mirrors familiar frameworks: a :class:`Module` owns named
parameters and submodules; :class:`Sequential` chains modules; concrete
layers wrap the ops in :mod:`repro.nn.functional`.  Models expose
``state_dict`` / ``load_state_dict`` for the disk-backed model zoo.

A key requirement from the paper's attacks is *differentiability with
respect to the input*: calling a model on a ``requires_grad`` input tensor
and backpropagating a scalar loss yields the input gradient the C&W and
EAD optimizers consume.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.nn import functional as F
from repro.nn import init as initializers
from repro.nn.autograd import Tensor, as_tensor, relu, sigmoid, tanh
from repro.nn.backend import check_kernel


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        self._parameters: "OrderedDict[str, Tensor]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        if not isinstance(tensor, Tensor):
            raise TypeError(f"parameter {name!r} must be a Tensor")
        tensor.requires_grad = True
        tensor.name = name
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        if not isinstance(module, Module):
            raise TypeError(f"submodule {name!r} must be a Module")
        self._modules[name] = module
        return module

    def __setattr__(self, name, value):
        if isinstance(value, Module) and name not in ("_modules",):
            object.__setattr__(self, name, value)
            self._modules[name] = value
        else:
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        """All trainable parameters in this module and its submodules."""
        return [p for _name, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes and state
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat name → ndarray snapshot of all parameters (copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a snapshot produced by :meth:`state_dict`; strict matching."""
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={missing}, unexpected={unexpected}"
            )
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: saved {value.shape}, model {param.shape}"
                )
            param.data = value.astype(param.data.dtype, copy=True)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Union[Tensor, np.ndarray]) -> Tensor:
        return self.forward(as_tensor(x))


class Sequential(Module):
    """Chain modules; ``Sequential(a, b, c)(x) == c(b(a(x)))``."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = []
        for i, layer in enumerate(layers):
            self.register_module(f"layer{i}", layer)
            self.layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class Dense(Module):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 weight_init: str = "glorot_uniform", bias: bool = True):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        init_fn = initializers.get_initializer(weight_init)
        self.weight = self.register_parameter(
            "weight", Tensor(init_fn((self.in_features, self.out_features), rng))
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(initializers.zeros((self.out_features,)))
            )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self):
        return f"Dense({self.in_features} -> {self.out_features})"


class Conv2D(Module):
    """2-D convolution layer over NCHW inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: Union[int, str] = "same",
                 rng: Optional[np.random.Generator] = None,
                 weight_init: str = "glorot_uniform", bias: bool = True,
                 conv_kernel: str = "numpy"):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = int(kernel)
        self.stride = int(stride)
        self.padding = padding
        #: Name of the conv kernel every forward and backward runs on
        #: (:data:`repro.nn.backend.KERNELS`).  Not part of the state
        #: dict — a checkpoint trained on one kernel loads onto any other.
        self.conv_kernel = check_kernel(conv_kernel)
        init_fn = initializers.get_initializer(weight_init)
        shape = (self.out_channels, self.in_channels, self.kernel, self.kernel)
        self.weight = self.register_parameter("weight", Tensor(init_fn(shape, rng)))
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(initializers.zeros((self.out_channels,)))
            )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding,
                        conv_kernel=self.conv_kernel)

    def __repr__(self):
        return (f"Conv2D({self.in_channels} -> {self.out_channels}, "
                f"{self.kernel}x{self.kernel}, stride={self.stride}, "
                f"padding={self.padding!r})")


class AvgPool2D(Module):
    """Non-overlapping average pooling."""

    def __init__(self, kernel: int = 2):
        super().__init__()
        self.kernel = int(kernel)

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel)

    def __repr__(self):
        return f"AvgPool2D({self.kernel}x{self.kernel})"


class MaxPool2D(Module):
    """Non-overlapping max pooling."""

    def __init__(self, kernel: int = 2):
        super().__init__()
        self.kernel = int(kernel)

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel)

    def __repr__(self):
        return f"MaxPool2D({self.kernel}x{self.kernel})"


class UpSample2D(Module):
    """Nearest-neighbour upsampling (MagNet's MNIST decoder uses 2x)."""

    def __init__(self, factor: int = 2):
        super().__init__()
        self.factor = int(factor)

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample2d(x, self.factor)

    def __repr__(self):
        return f"UpSample2D(x{self.factor})"


class Flatten(Module):
    """Collapse all non-batch dimensions."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape((x.shape[0], -1))

    def __repr__(self):
        return "Flatten()"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return relu(x)

    def __repr__(self):
        return "ReLU()"


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return sigmoid(x)

    def __repr__(self):
        return "Sigmoid()"


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return tanh(x)

    def __repr__(self):
        return "Tanh()"


def set_conv_kernel(model: Module, conv_kernel: str) -> Module:
    """Run every :class:`Conv2D` in ``model`` on ``conv_kernel``; returns it."""
    check_kernel(conv_kernel)
    for module in model.modules():
        if isinstance(module, Conv2D):
            module.conv_kernel = conv_kernel
    return model


def describe(module: Module, indent: int = 0) -> str:
    """Render a human-readable architecture summary (used by Table II/V benches)."""
    pad = "  " * indent
    if isinstance(module, Sequential):
        lines = [f"{pad}Sequential("]
        for layer in module:
            lines.append(describe(layer, indent + 1))
        lines.append(f"{pad})")
        return "\n".join(lines)
    header = f"{pad}{module!r}"
    own_params = sum(p.size for p in module._parameters.values())
    if own_params:
        header += f"  [{own_params} params]"
    children = [describe(child, indent + 1) for child in module._modules.values()
                if not isinstance(module, Sequential)]
    return "\n".join([header] + children) if children else header
