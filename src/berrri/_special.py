"""The special functions the model needs, on numpy and `math` alone.

psi (the digamma function) and log Gamma come from one pass.  Each positive
x is shifted to y = x + 8 by the recurrences

    psi(x) = psi(y) - sum_i 1 / (x + i),   log Gamma(x) = log Gamma(y) - sum_i log(x + i)

over i = 0 .. 7, and psi(y) and log Gamma(y) are their asymptotic (Stirling)
series in z = 1 / y^2, whose first eight terms leave an error below 1e-16
of the value at y >= 8.  The shift terms pair up as
(x + i)(x + 7 - i) = x(x + 7) + i(7 - i), so the eight reciprocals and the
log of the product take four-row arrays and one log; both functions share
y, log y, 1 / y, z and the pairs.

Every function is elementwise: each value goes through the same
operations, in the same order, whatever else its array holds (sums over
the pairs and series terms run as a fixed tree of whole-row additions,
never as a numpy reduction, whose order follows the array's shape).  So a
value's bits do not depend on its array, which keeps each member of a
batched fit equal to that fit run alone.
"""

import math

import numpy as np

__all__ = ["BLOCK", "digamma_gammaln", "xlogy"]

# The series coefficients c_j of z^j, j = 0 .. 7: B_2k / (2k) for psi and
# B_2k / (2k (2k - 1)) for log Gamma, k = j + 1, with B_2k the Bernoulli
# numbers.  The even and odd ones are kept as columns ordered psi, log Gamma
# for each j, so c_2j + c_2j+1 z forms both series' pairs in one array.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_SERIES = np.array([[b / (2 * k), b / (2 * k * (2 * k - 1))] for k, b in enumerate(_BERNOULLI, 1)])
_SERIES_EVEN = _SERIES[0::2].reshape(-1, 1)
_SERIES_ODD = _SERIES[1::2].reshape(-1, 1)
# i (7 - i) for the pairs (x + i)(x + 7 - i), i = 0 .. 3
_PAIR_OFFSETS = np.array([[0.0], [6.0], [10.0], [12.0]])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Values per pass: a longer array runs in blocks of this many, so the pass's
# temporaries (a few dozen values per input) stay small and in cache.
BLOCK = 512


def digamma_gammaln(x):
    """psi(x) and log Gamma(x) of an array of positive reals below 1e150,
    elementwise, each within 1e-14 of the value (absolutely near a zero of
    either)."""
    shape = np.shape(x)
    x = np.ravel(x).astype(np.float64, copy=False)
    if x.size <= BLOCK:
        psi, lgamma = _digamma_gammaln(x)
    else:
        psi, lgamma = np.empty((2, x.size))
        for start in range(0, x.size, BLOCK):
            block = slice(start, start + BLOCK)
            psi[block], lgamma[block] = _digamma_gammaln(x[block])
    return psi.reshape(shape), lgamma.reshape(shape)


def _digamma_gammaln(x):
    y = x + 8.0
    inv_y = 1.0 / y
    log_y = np.log(y)
    z = inv_y * inv_y
    # both series sum_j c_j z^j by Estrin's scheme, in place in one
    # array: rows c_2j + c_2j+1 z, then pairs j and j + 2 joined by z^4,
    # then the two halves by z^2, leaving psi's in row 6, log Gamma's in 7
    rows = _SERIES_ODD * z
    rows += _SERIES_EVEN
    z2 = z * z
    rows[4:] *= z2 * z2
    rows[4:] += rows[:4]
    rows[6:] *= z2
    rows[6:] += rows[4:6]
    psi = 0.5 * inv_y
    psi += z * rows[6]
    lgamma = inv_y * rows[7]
    # the shift terms, in the same array: the pairs (x + i)(x + 7 - i) and
    # their reciprocals, each summed in a fixed tree
    pairs, inv_pairs = rows[:4], rows[4:]
    x7 = x + 7.0
    np.add(x * x7, _PAIR_OFFSETS, out=pairs)
    np.reciprocal(pairs, out=inv_pairs)
    inv_pairs[:2] += inv_pairs[2:]
    psi += (x + x7) * (inv_pairs[0] + inv_pairs[1])  # sum_i 1 / (x + i)
    np.subtract(log_y, psi, out=psi)
    pairs *= z  # into (0, 1], so their product cannot overflow
    pairs[:2] *= pairs[2:]
    lgamma -= np.log(pairs[0] * pairs[1])  # sum_i log(x + i) - 8 log y
    # log Gamma(y) - sum_i log(x + i), with (y - 1/2) log y - 8 log y
    # written as (x - 1/2) log y
    lgamma += _HALF_LOG_2PI
    lgamma -= y
    lgamma += (x - 0.5) * log_y
    return psi, lgamma


def xlogy(x, y):
    """x * log(y), and 0 where x is 0; y must be positive where x is not."""
    return x * np.log(y + (x == 0))
