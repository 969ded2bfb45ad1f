"""Shared parameter tables for the test suite.

Parameter points are chosen inside every formula's admissible range for the
degrees the tests use (no vanishing denominators, nonzero k_n), with three
points per parametrized family; ``DEGENERATE_POINTS`` are the exceptions,
chosen where a formula fails.
"""

from fractions import Fraction as F

# family name -> list of parameter dicts (one entry for parameter-free families)
FAMILY_POINTS: dict[str, list[dict]] = {
    "hermite": [{}],
    "laguerre": [{"alpha": F(1, 2)}, {"alpha": F(3)}, {"alpha": F(-1, 4)}],
    "jacobi": [{"alpha": F(1, 2), "beta": F(-1, 3)},
               {"alpha": F(2), "beta": F(3)},
               {"alpha": F(5, 2), "beta": F(1, 4)}],
    "gegenbauer": [{"alpha": F(3, 4)}, {"alpha": F(5, 2)}, {"alpha": F(1, 5)}],
    "bessel": [{"alpha": F(0)}, {"alpha": F(1)}, {"alpha": F(3, 2)}],
    "monomial": [{}],
    "charlier": [{"mu": F(1)}, {"mu": F(2)}, {"mu": F(1, 3)}],
    "meixner": [{"gamma": F(2), "mu": F(1, 3)},
                {"gamma": F(1, 2), "mu": F(2)},
                {"gamma": F(3), "mu": F(1, 4)}],
    "krawtchouk": [{"p": F(1, 2), "N": F(12)},
                   {"p": F(1, 3), "N": F(13)},
                   {"p": F(3, 4), "N": F(15)}],
    "hahn": [{"alpha": F(1, 2), "beta": F(1, 3), "N": F(12)},
             {"alpha": F(2), "beta": F(1), "N": F(13)},
             {"alpha": F(1, 4), "beta": F(3, 2), "N": F(14)}],
    "hahn-q": [{"alpha": F(1), "beta": F(2), "N": F(12)},
               {"alpha": F(1, 2), "beta": F(1, 3), "N": F(13)},
               {"alpha": F(3), "beta": F(1), "N": F(14)}],
    "discrete-chebyshev": [{"N": F(12)}, {"N": F(13)}, {"N": F(15)}],
    "k-family": [{"alpha": F(3), "beta": F(1, 2)},
                 {"alpha": F(1, 2), "beta": F(2)},
                 {"alpha": F(-2), "beta": F(1)}],
    "falling-factorial": [{}],
}

# points where a formula or k_n fails, or a removable 0/0 lies: the
# alpha + beta = -1 line (Chebyshev T, Jacobi and Hahn at alpha = -1/3),
# Gegenbauer alpha = -3/2 (lambda_m = lambda_n), Jacobi alpha = -3/2,
# beta = -5/2 (k_2 = k_3 = 0), Hahn-Q beyond N and Bessel alpha = -1
DEGENERATE_POINTS = [("jacobi", {"alpha": F(-1, 2), "beta": F(-1, 2)}),
                     ("jacobi", {"alpha": F(-1, 3), "beta": F(-2, 3)}),
                     ("hahn", {"alpha": F(-1, 3), "beta": F(-2, 3), "N": F(80)}),
                     ("gegenbauer", {"alpha": F(-3, 2)}),
                     ("jacobi", {"alpha": F(-3, 2), "beta": F(-5, 2)}),
                     ("hahn-q", {"alpha": F(1, 2), "beta": F(1, 3), "N": F(5)}),
                     ("hahn-q", {"alpha": F(2), "beta": F(1), "N": F(3)}),
                     ("bessel", {"alpha": F(-1)})]

# family name (without -monic) -> the parameter-derivative test points
PD_POINTS = {
    "jacobi": [{"alpha": F(1, 2), "beta": F(1, 3)}, {"alpha": F(2), "beta": F(3)},
               {"alpha": F(5, 2), "beta": F(1, 4)}],
    "gegenbauer": [{"alpha": F(3, 4)}, {"alpha": F(5, 2)}, {"alpha": F(1, 5)}],
    "laguerre": [{"alpha": F(1, 2)}, {"alpha": F(3)}, {"alpha": F(-1, 4)}],
    "bessel": [{"alpha": F(0)}, {"alpha": F(1)}, {"alpha": F(3, 2)}],
    "hahn": [{"alpha": F(1, 2), "beta": F(1, 3), "N": F(12)},
             {"alpha": F(2), "beta": F(1), "N": F(13)},
             {"alpha": F(1, 4), "beta": F(3, 2), "N": F(14)}],
    "hahn-q": [{"alpha": F(1), "beta": F(2), "N": F(12)},
               {"alpha": F(1, 2), "beta": F(1, 3), "N": F(13)},
               {"alpha": F(3), "beta": F(1), "N": F(14)}],
    "meixner": [{"gamma": F(2), "mu": F(1, 3)}, {"gamma": F(1, 2), "mu": F(2)},
                {"gamma": F(3), "mu": F(1, 4)}],
    "krawtchouk": [{"p": F(1, 2), "N": F(12)}, {"p": F(1, 3), "N": F(13)},
                   {"p": F(3, 4), "N": F(15)}],
    "charlier": [{"mu": F(1)}, {"mu": F(2)}, {"mu": F(1, 3)}],
    "k-family": [{"alpha": F(3), "beta": F(1, 2)}, {"alpha": F(1, 2), "beta": F(2)},
                 {"alpha": F(-2), "beta": F(1)}],
}


def iter_specs(monic: bool = False):
    """Yield (name, params) over the whole catalog sample table."""
    for name, points in FAMILY_POINTS.items():
        for params in points:
            yield (name + "-monic" if monic else name), params
