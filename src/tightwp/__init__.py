"""Tight Weil-Petersson volume machinery.

Exact intersection numbers, the closed-form tight-volume polynomials,
Bessel-moment numerics, Boltzmann cusp statistics and the tight
length-spectrum limit laws, with a CLI front door (``tightwp``).
"""

# Benchmark environment stamps record this; the term-map kernels are the
# pure-Python loops in tightwp.ring.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
