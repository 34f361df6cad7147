"""Entropies of density matrices under spectral conditioning.

The core objects are validated density matrices, projectors, and identity
resolutions, each resolution stored as one orthonormal frame cut into column
blocks (matcore); on top of them sit the entropy layer (von Neumann,
compressed, conditional), a classical Shannon layer for partition data, a
resolution-only conditional entropy with its refinement and mixedness
orders, and the exact maximum of the compressed entropy over projectors of
fixed rank. Seeded random draws (rand), hand-built state families with the
paper's worked examples (states), and a randomized audit of the
conditional-entropy desiderata (audit) complete the package.
"""

from . import audit, config, entropy, errors, grassopt, matcore, rand, resolutions, serialize
from . import shannon, states
from .audit import *
from .config import *
from .entropy import *
from .errors import *
from .grassopt import *
from .matcore import *
from .rand import *
from .resolutions import *
from .serialize import *
from .shannon import *
from .states import *

__version__ = "0.1.0"

# The public API is the union of the modules' public parts.
__all__ = [
    name
    for module in (audit, config, entropy, errors, grassopt, matcore, rand, resolutions,
                   serialize, shannon, states)
    for name in module.__all__
]
