"""skeinlab: exact computer algebra for full colored HOMFLY-PT invariants.

Batch engine for torus links and framed unknots: colored and composite
invariants, reformulated integrality carriers, free-energy integrality
checks, congruent skein relations, and q -> 1 special-polynomial limits,
all in exact arithmetic over ZZ[q^{+-1}, t^{+-1}] with bracket denominators.

A decoration of a link component, an element of the skein of the annulus, is
a composite-basis term table {PartitionPair: coeff} with int coefficients:
the element sum of coeff * Q_pair (see ``skeinlab.symfun``).  Every framed
bracket is one vector of ``skein.framed_numerators`` (``skein.torus_framed``).
"""

from .exactring import LaurentQT, RationalQT
from .partitions import Partition, PartitionPair
from .skein import InvariantResult, LinkSpec

__version__ = "0.1.0"

__all__ = [
    "InvariantResult",
    "LaurentQT",
    "LinkSpec",
    "Partition",
    "PartitionPair",
    "RationalQT",
    "__version__",
]
