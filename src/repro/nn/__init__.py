"""From-scratch NumPy neural-network framework (the PyTorch substitute).

Every layer implements an explicit, deterministic ``forward``/``backward``
pair — see :mod:`repro.nn.module` for why determinism and layer-granular
state matter to Swift.
"""

from repro.nn.activations import GELU, Dropout, Identity, ReLU
from repro.nn.attention import MultiHeadSelfAttention, softmax, softmax_backward
from repro.nn.conv import Conv2d, Flatten, GlobalAvgPool2d
from repro.nn.embedding import Embedding, PositionalEmbedding
from repro.nn.linear import Linear
from repro.nn.loss import CrossEntropyLoss, MSELoss
from repro.nn.module import Module, Parameter
from repro.nn.normalization import BatchNorm2d, LayerNorm
from repro.nn.sequential import Sequential
from repro.nn.transformer import MLPBlock, TransformerEncoderLayer

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "GlobalAvgPool2d",
    "Flatten",
    "ReLU",
    "GELU",
    "Dropout",
    "Identity",
    "LayerNorm",
    "BatchNorm2d",
    "Embedding",
    "PositionalEmbedding",
    "MultiHeadSelfAttention",
    "softmax",
    "softmax_backward",
    "TransformerEncoderLayer",
    "MLPBlock",
    "Sequential",
    "CrossEntropyLoss",
    "MSELoss",
]
