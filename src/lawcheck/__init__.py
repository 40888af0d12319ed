"""Verification toolkit for secondary Chern-Euler forms and the Law of Vector Fields.

Two tracks share one source of truth:

* a symbolic track (exact graded differential algebra over a trig/pi
  coefficient ring: trig, algebra, chern, report and this package, with no
  floating-point library) that mechanically verifies the transgression identities,
* a numeric track (dual-number differential geometry plus Gauss-Legendre
  quadrature) that reproduces the relative Gauss-Bonnet theorem and the
  Law of Vector Fields ind V + ind dminus V = chi(X) on a scenario catalog;
  it imports the symbolic track, and ``templates`` compiles chern's forms for it.
"""

from .trig import TrigScalar, sphere_volume
from .algebra import Form


class ConfigError(ValueError):
    """Malformed scenario configuration or a bad command-line argument."""


class GenericityError(RuntimeError):
    """The field violates the generic-position assumptions of the law."""


__all__ = ["ConfigError", "GenericityError", "TrigScalar", "sphere_volume", "Form"]
