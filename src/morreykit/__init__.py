"""Toolkit for generalized Morrey-type function spaces on periodic grids.

Modules
-------
growth   growth functions phi, class checks, trace transforms
dyadic   dyadic cubes and their grid masks on the periodic unit box
gridfn   sampled functions, DFT filter banks, maximal operators
norms    Morrey / function-space / sequence-space norms
decomp   atoms, molecules, quarks: validators, analysis, synthesis
trace    trace and extension operators on coefficient fields
verify   inequality campaign engine
cli      command-line entry point
"""

from . import growth, dyadic, gridfn, norms, decomp, trace, verify

__version__ = "0.1.0"
