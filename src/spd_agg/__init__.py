"""Second-order aggregation of convolutional features into symmetric
positive definite matrices, with a learnable manifold-constrained
compression and hand-derived gradients throughout.

The package republishes the ``__all__`` of each of its modules."""

from .errors import *
from .linalg import *
from .kernel import *
from .stiefel import *
from .head import *
from .network import *
from .data import *

__version__ = "0.1.0"
