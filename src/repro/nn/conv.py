"""2-D convolution and pooling via im2col, with exact backward.

These power the Wide-ResNet workload (paper Table 2).  The im2col
formulation turns convolution into one large matrix multiply, which is the
recommended vectorization strategy for NumPy (loops only over the small
kernel window, never over batch or spatial extent).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.utils.seeding import RngStream

__all__ = ["Conv2d", "GlobalAvgPool2d", "Flatten"]


def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Unfold NCHW input into columns of shape (N, C*kh*kw, OH*OW)."""
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold columns back into an NCHW gradient (adjoint of :func:`_im2col`)."""
    n, c, h, w = x_shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            out[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


class Conv2d(Module):
    """2-D convolution over NCHW inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: RngStream | None = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        gen = (rng or RngStream(0, "conv")).generator("weight")
        fan_in = in_channels * kernel_size * kernel_size
        bound = 1.0 / np.sqrt(fan_in)
        self.weight = self.register_parameter(
            "weight",
            Parameter(
                gen.uniform(
                    -bound, bound, (out_channels, in_channels, kernel_size, kernel_size)
                )
            ),
        )
        self.bias = (
            self.register_parameter("bias", Parameter(np.zeros(out_channels)))
            if bias
            else None
        )
        self._cache: tuple[np.ndarray, tuple[int, int, int, int]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, oh, ow = _im2col(x, k, k, s, p)
        self._cache = (cols, x.shape)
        w2d = self.weight.data.reshape(self.out_channels, -1)
        out = np.einsum("of,nfl->nol", w2d, cols, optimize=True)
        if self.bias is not None:
            out = out + self.bias.data[None, :, None]
        return out.reshape(x.shape[0], self.out_channels, oh, ow)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        cols, x_shape = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        n = grad_out.shape[0]
        g2d = grad_out.reshape(n, self.out_channels, -1)
        w_grad = np.einsum("nol,nfl->of", g2d, cols, optimize=True)
        self.weight.accumulate_grad(w_grad.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.accumulate_grad(g2d.sum(axis=(0, 2)))
        w2d = self.weight.data.reshape(self.out_channels, -1)
        col_grad = np.einsum("of,nol->nfl", w2d, g2d, optimize=True)
        return _col2im(col_grad, x_shape, k, k, s, p)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, producing (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x_shape is not None
        n, c, h, w = self._x_shape
        return np.broadcast_to(
            grad_out[:, :, None, None] / (h * w), self._x_shape
        ).copy()


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x_shape is not None
        return grad_out.reshape(self._x_shape)
