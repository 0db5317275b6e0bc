"""skeinlab: exact computer algebra for full colored HOMFLY-PT invariants.

Batch engine for torus links and framed unknots: colored and composite
invariants, reformulated integrality carriers, free-energy integrality
checks, congruent skein relations, and q -> 1 special-polynomial limits,
all in exact arithmetic over ZZ[q^{+-1}, t^{+-1}] with bracket denominators.
"""

from .exactring import LaurentQT, RationalQT
from .partitions import Partition, PartitionPair
from .skein import InvariantResult, LinkSpec
from .symfun import SymFunc

__version__ = "0.1.0"

__all__ = [
    "InvariantResult",
    "LaurentQT",
    "LinkSpec",
    "Partition",
    "PartitionPair",
    "RationalQT",
    "SymFunc",
    "__version__",
]
