"""Placeholder for the removed compiled relaxation kernels.

relax takes damped Newton steps in numpy and compiles nothing.  The module
stays because perfbench/run.py reads USING_NUMBA for its environment block.
"""

USING_NUMBA = False
