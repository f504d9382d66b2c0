"""Layer modules with explicit forward/backward passes.

The design mirrors the torch.nn API surface the paper's training code would
use, but with hand-written backward passes: every :class:`Module` caches the
activations its backward pass needs during ``forward`` and releases them
when ``backward`` consumes them.  Gradients accumulate into
``Parameter.grad`` and are consumed by :mod:`repro.nn.optim`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn.contracts import shape_contract

__all__ = [
    "Parameter",
    "Module",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
    "Sequential",
]


class Parameter:
    """A trainable array together with its accumulated gradient."""

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class: parameter discovery, train/eval mode, state (de)serialization."""

    def __init__(self):
        self.training = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def modules(self) -> Iterator["Module"]:
        """All modules in the tree, depth-first, including self."""
        yield self
        for child in self.children():
            yield from child.modules()

    def parameters(self) -> Iterator[Parameter]:
        for module in self.modules():
            for value in module.__dict__.values():
                if isinstance(value, Parameter):
                    yield value

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        """Parameters with hierarchical dotted names, stable across calls."""
        yield from self._named_parameters(prefix="")

    def _named_parameters(self, prefix: str) -> Iterator[tuple[str, Parameter]]:
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value._named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._named_parameters(prefix=f"{path}.{i}.")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def state_dict(self) -> dict:
        """Copy of every parameter and buffer, keyed by dotted name."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        """In-place load; raises ``KeyError`` on missing and shape mismatch."""
        own = dict(self.named_parameters())
        bufs = dict(self.named_buffers())
        for name, value in state.items():
            if name in own:
                target = own[name].data
            elif name in bufs:
                target = bufs[name]
            else:
                raise KeyError(f"unexpected key in state dict: {name!r}")
            if target.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {target.shape} vs {value.shape}"
                )
            target[...] = value

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        """Non-trainable state (e.g. batchnorm running stats)."""
        yield from self._named_buffers(prefix="")

    def _named_buffers(self, prefix: str) -> Iterator[tuple[str, np.ndarray]]:
        buffer_names = getattr(self, "_buffers", ())
        for key in buffer_names:
            yield f"{prefix}{key}", getattr(self, key)
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Module):
                yield from value._named_buffers(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._named_buffers(prefix=f"{path}.{i}.")


def _kaiming_init(shape: tuple, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal initialization, the standard for ReLU networks."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def _batch_innermost(x: np.ndarray) -> np.ndarray:
    """``x`` in the memory format the spatial modules emit (see ``F.channel_major``)."""
    return F.channel_major(x).transpose(3, 0, 1, 2)


class Conv2d(Module):
    """2-D convolution (square kernels, no dilation/groups — all the ResNets need)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            _kaiming_init((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng),
            name="conv.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="conv.bias") if bias else None
        self._cache: tuple | None = None

    @shape_contract("N,C,H,W -> N,K,H',W'")
    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.bias is not None else None
        out, cache = F.conv2d(x, self.weight.data, bias, self.stride, self.padding)
        if self.training:
            self._cache = (cache, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or in eval mode)")
        cache, x_shape = self._cache
        self._cache = None
        grad_x, grad_w, grad_b = F.conv2d_backward(
            grad_out,
            cache,
            x_shape,
            self.weight.data,
            self.stride,
            self.padding,
            with_bias=self.bias is not None,
        )
        self.weight.grad += grad_w
        if self.bias is not None:
            self.bias.grad += grad_b
        return grad_x

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _kaiming_init((out_features, in_features), in_features, rng), name="linear.weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="linear.bias") if bias else None
        self._cache: np.ndarray | None = None

    @shape_contract("N,F -> N,G")
    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            self._cache = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or in eval mode)")
        x = self._cache
        self._cache = None
        self.weight.grad += grad_out.T @ x
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class BatchNorm2d(Module):
    """Batch normalization over the channel axis of ``(N, C, H, W)`` inputs."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features), name="bn.weight")
        self.bias = Parameter(np.zeros(num_features), name="bn.bias")
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._buffers = ("running_mean", "running_var")
        self._cache: tuple | None = None

    @shape_contract("N,C,H,W -> N,C,H,W")
    def forward(self, x: np.ndarray) -> np.ndarray:
        # One contiguous row per channel: every reduction below is a row
        # reduction and every temporary is written in place.
        rows = F.channel_major(x)
        shape = rows.shape
        rows = rows.reshape(self.num_features, -1)
        out = np.empty_like(rows)
        if self.training:
            m = rows.shape[1]
            mean = rows.sum(axis=1) / m
            x_hat = rows - mean[:, None]
            var = np.multiply(x_hat, x_hat, out=out).sum(axis=1) / m
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(np.float32)
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            ).astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var
            x_hat = rows - mean[:, None]

        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[:, None]
        np.multiply(x_hat, self.weight.data[:, None], out=out)
        out += self.bias.data[:, None]
        if self.training:
            self._cache = (x_hat, inv_std)
        return out.reshape(shape).transpose(3, 0, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or in eval mode)")
        x_hat, inv_std = self._cache
        self._cache = None
        g = F.channel_major(grad_out)
        shape = g.shape
        g = g.reshape(self.num_features, -1)
        m = g.shape[1]

        grad_x = g * x_hat
        sum_gx = grad_x.sum(axis=1)
        sum_g = g.sum(axis=1)
        self.weight.grad += sum_gx
        self.bias.grad += sum_g

        # Standard batchnorm backward: subtract the batch-mean components,
        #   gamma * inv_std * (g - mean(g) - x_hat * mean(g * x_hat)).
        np.multiply(x_hat, (sum_gx / m)[:, None], out=grad_x)
        np.subtract(g, grad_x, out=grad_x)
        grad_x -= (sum_g / m)[:, None]
        grad_x *= (self.weight.data * inv_std)[:, None]
        return grad_x.reshape(shape).transpose(3, 0, 1, 2)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self):
        super().__init__()
        self._cache: np.ndarray | None = None

    @shape_contract("* -> *")
    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            self._cache = x
        return F.relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or in eval mode)")
        x = self._cache
        self._cache = None
        return F.relu_backward(grad_out, x)


class MaxPool2d(Module):
    """Max pooling."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self._cache: tuple | None = None

    @shape_contract("N,C,H,W -> N,C,H',W'")
    def forward(self, x: np.ndarray) -> np.ndarray:
        out, argmax = F.max_pool2d(x, self.kernel_size, self.stride)
        if self.training:
            self._cache = (argmax, x.shape)
        return _batch_innermost(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or in eval mode)")
        argmax, x_shape = self._cache
        self._cache = None
        return _batch_innermost(
            F.max_pool2d_backward(grad_out, argmax, x_shape, self.kernel_size, self.stride)
        )


class AvgPool2d(Module):
    """Average pooling."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self._cache: tuple | None = None

    @shape_contract("N,C,H,W -> N,C,H',W'")
    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            self._cache = x.shape
        return _batch_innermost(F.avg_pool2d(x, self.kernel_size, self.stride))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or in eval mode)")
        x_shape = self._cache
        self._cache = None
        return _batch_innermost(
            F.avg_pool2d_backward(grad_out, x_shape, self.kernel_size, self.stride)
        )


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, yielding ``(N, C)``."""

    def __init__(self):
        super().__init__()
        self._cache: tuple | None = None

    @shape_contract("N,C,H,W -> N,C")
    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            self._cache = x.shape
        n, c, h, w = x.shape
        pooled = F.channel_major(x).reshape(c, h * w, n).mean(axis=1)
        return np.ascontiguousarray(pooled.T)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or in eval mode)")
        n, c, h, w = self._cache
        self._cache = None
        grad = np.empty((c, h, w, n), dtype=grad_out.dtype)
        grad[...] = (grad_out.T / (h * w))[:, None, None, :]
        return grad.transpose(3, 0, 1, 2)


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def __init__(self):
        super().__init__()
        self._cache: tuple | None = None

    @shape_contract("N,... -> N,F")
    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (or in eval mode)")
        shape = self._cache
        self._cache = None
        grad = grad_out.reshape(shape)
        return _batch_innermost(grad) if len(shape) == 4 else grad


class Identity(Module):
    """No-op module (used for residual shortcuts with matching shapes)."""

    @shape_contract("* -> *")
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Sequential(Module):
    """Run children in order; backward runs them in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    @shape_contract("* -> *")
    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential({inner})"
