"""Pseudospectral solver for the vorticity dynamics around the two-jet zonal
flow on the unit sphere, with the reduced degree-2 system and rotating-frame
equivalence.  The independent references (Cartesian frames, the frame map)
and the integral-identity oracle suites live in sphkol.oracles, which no
solver module imports."""

__version__ = "0.1.0"
