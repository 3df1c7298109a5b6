"""Exact enumerative geometry for lines and conics on hypersurfaces.

Two independent engines integrate over the same intersection rings: a
symbolic one, by Littlewood-Richardson products of Schubert classes and
Segre pushforward on projective-bundle towers, and a fixed-point one, by
Bott's residue formula.  All arithmetic is exact, and every public result is
a :class:`fractions.Fraction`.  Every name but the three below is read from
its module.
"""

# every module is imported, in this order, so that bench/child.py's first
# speed probe meets the import-time garbage collections where it always has
from . import bott, bundles, chern, chow, counts, gwdt, symfunc  # noqa: F401
from .counts import HypersurfaceProblem, count_curves, integral

__version__ = "0.1.0"

__all__ = ["HypersurfaceProblem", "count_curves", "integral"]
