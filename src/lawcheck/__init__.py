"""Verification toolkit for secondary Chern-Euler forms and the Law of Vector Fields.

Two tracks share one source of truth:

* a symbolic track (exact graded differential algebra over a trig/pi
  coefficient ring) that mechanically verifies the transgression identities,
* a numeric track (dual-number differential geometry plus Gauss-Legendre
  quadrature) that reproduces the relative Gauss-Bonnet theorem and the
  Law of Vector Fields ind V + ind dminus V = chi(X) on a scenario catalog.
"""

from .trig import TrigScalar, sphere_volume
from .algebra import Form

__all__ = [
    "TrigScalar",
    "sphere_volume",
    "Form",
]
