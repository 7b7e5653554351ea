"""Steklov spectra of the modified Helmholtz operator on planar domains.

Importing the package loads the solve path only: ``geometry``, ``mesh``,
``fem``, ``dtn``, ``pipeline`` and ``analytic``. The other modules
(``analysis``, ``conjecture``, ``greens``, ``cli``) load when they are
imported by name, e.g. ``from dtnlab import analysis``.
"""

from . import analytic, dtn, fem, geometry, mesh, pipeline

__version__ = "0.1.0"

__all__ = [
    "analytic",
    "dtn",
    "fem",
    "geometry",
    "mesh",
    "pipeline",
    "__version__",
]
