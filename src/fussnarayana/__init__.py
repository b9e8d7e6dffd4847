"""Exact Fuss-Narayana combinatorics with free-probability and random-matrix checks.

Layers, from the inside out:

* :mod:`~fussnarayana.poly` and :mod:`~fussnarayana.series`: the
  polynomial ring over the integers and truncated-series arithmetic,
  one kernel for every coefficient ring, which supplies only its
  multiply-accumulate.  A private module, ``_packed``, stores monomials
  as one int each, with the accumulate that the series solver and the
  interval counter run on.
* :mod:`~fussnarayana.exact`: closed-form Fuss-Catalan and
  Fuss-Narayana counts and the limit moment polynomials.
* :mod:`~fussnarayana.partitions`: noncrossing pair matchings adapted
  to repeated words, counted by an interval recurrence and listed by
  brute enumeration; the combinatorial oracle for the closed forms.
* :mod:`~fussnarayana.freeprob`: Marchenko-Pastur laws, moments of
  their free multiplicative convolutions, S-transform and quadrature
  cross-checks.
* :mod:`~fussnarayana.rmt`: Monte Carlo products of rectangular
  Gaussian matrices converging to those moments.
* :mod:`~fussnarayana.cli`: the ``fussnarayana`` command.

Names are imported from the submodules, e.g.
``from fussnarayana.exact import limit_moment_poly``; the package root
re-exports nothing.
"""

__version__ = "0.1.0"
