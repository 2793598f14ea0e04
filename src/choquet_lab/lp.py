"""The LP solver, imported on its first use.

``scipy.optimize`` dominates the package's import time and memory, and most
commands never solve an LP, so :func:`linprog` defers the import until a
model is actually solved.
"""


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)
