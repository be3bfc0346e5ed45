"""Fictitious-domain FSI on non-matching grids with multiplier coupling.

A two dimensional finite element toolbox for the stationary
fluid-structure problem in which the structure is immersed in the fluid
box through a reference map and coupled by a distributed Lagrange
multiplier.  The velocity/pressure pair is piecewise linear on a
midpoint-refined mesh over piecewise linear pressure; the focus is the
quadrature error committed when the fluid-structure coupling matrix is
assembled with single-element rules instead of exact mesh-intersection
integration.
"""

__version__ = "0.1.0"
