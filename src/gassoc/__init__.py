"""Verified combinatorics of graph associahedra: elimination trees, swap
moves, flip distances and diameters, hardness-reduction instance builders,
and the integral polymatroid realization.

The package republishes the star exports (``__all__``) of each module
imported below."""

from .errors import *
from .graph import *
from .elimtree import *
from .flipgraph import *
from .polymatroid import *
from .reductions import *

__version__ = "0.1.0"
