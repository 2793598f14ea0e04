"""The LP solver, imported on its first use.

``scipy.optimize`` dominates the package's import time and memory, and most
commands never solve an LP, so :func:`linprog` defers the import until a
model is actually solved.  Two models use it: the supporting price of an
excess cloud over three or more goods (one or two goods are priced in
closed form) and the realization of a vector target in ``range_realize``.
"""


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)
