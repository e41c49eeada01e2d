"""The bisquare loss forms written out one by one with np.where.

The package evaluates every loss form through one in-place kernel
(numerics._bisquare_into).  This module keeps each closed form as its own
expression in x = (t/c)^2 (or s/c^2), the slow and obvious way, so the two
can be checked against each other.  Arguments are arrays; c is the tuning
constant.
"""

import numpy as np


def rho(c, t):
    x = np.minimum(np.square(t / c), 1.0)
    return 1.0 - (1.0 - x) ** 3


def psi(c, t):
    x = np.square(t / c)
    return np.where(x < 1.0, (6.0 * t / c**2) * (1.0 - x) ** 2, 0.0)


def psi_prime(c, t):
    x = np.square(t / c)
    return np.where(x < 1.0, (6.0 / c**2) * (1.0 - x) * (1.0 - 5.0 * x), 0.0)


def weight(c, t):
    x = np.square(t / c)
    return np.where(x < 1.0, (6.0 / c**2) * (1.0 - x) ** 2, 0.0)


# The scaled-distance convention as a loss on the squared distance s:
# rho(sqrt(s)) and its derivatives in s by the chain rule.

def rho_sq_scaled(c, s):
    x = np.minimum(s / c**2, 1.0)
    return 1.0 - (1.0 - x) ** 3


def psi_sq_scaled(c, s):
    x = s / c**2
    return np.where(x < 1.0, (3.0 / c**2) * (1.0 - x) ** 2, 0.0)


def psi_sq_prime_scaled(c, s):
    x = s / c**2
    return np.where(x < 1.0, -(6.0 / c**4) * (1.0 - x), 0.0)


def squared_argument_forms(convention):
    """(rho_sq, psi_sq, psi_sq_prime) references for the convention."""
    if convention == "squared-distance":
        return rho, psi, psi_prime
    return rho_sq_scaled, psi_sq_scaled, psi_sq_prime_scaled
