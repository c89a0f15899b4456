"""Independent dominating sets in directed graphs.

A vertex set is independent when it spans no arc and dominating when every
vertex outside it has an in-neighbor inside it. This package decides whether
a digraph has a set that is both, constructs one when possible, analyzes the
structure that governs existence (strongly connected components and the
period / layer decomposition), and generates the graph families used to
exercise all of it.
"""

# Each module's ``__all__`` is the public API; the package re-exports it.
from .digraph import *
from .generators import *
from .solvers import *
from .structure import *

__version__ = "0.1.0"
