"""Four independent exact evaluators of p(n,3).

Each function computes the number of partitions of ``n`` into exactly three
parts by a different route: nearest-integer, a six-case monomial table, the
binomial basis weighted by the box height census, and a circulator form.
All arithmetic is exact; no floats appear anywhere.  Every evaluator
returns 0 for n < 3.
"""

from __future__ import annotations

from collections import namedtuple

from .ehrhart import h_star
from .partitions import count_bruteforce

QuasiPolyResult = namedtuple("QuasiPolyResult", ["n", "value", "method"])

# Six-case table indexed by r = n mod 6: coefficients (a, b, c) of
# a*k^2 + b*k + c where n = 6k + r.
MONOMIAL_TABLE = (
    (3, 0, 0),
    (3, 1, 0),
    (3, 2, 0),
    (3, 3, 1),
    (3, 4, 1),
    (3, 5, 2),
)

# Binomial route: p(n,3) = h*_r C(k+2,2) + h*_{6+r} C(k+1,2) + h*_{12+r} C(k,2).
# The three coefficients per r, read off the height census:
BINOMIAL_TRIPLES = (
    (0, 3, 3),
    (0, 4, 2),
    (0, 5, 1),
    (1, 4, 1),
    (1, 5, 0),
    (2, 4, 0),
)


def p3_nearest(n: int) -> int:
    """Nearest integer to n^2/12, exactly.

    n^2 mod 12 is always in {0, 1, 4, 9}, never 6, so the half-integer
    tie case cannot occur and floor((n^2 + 6) / 12) is the rounding.
    """
    if n < 3:
        return 0
    return (n * n + 6) // 12


def p3_monomial(n: int) -> int:
    """Quasipolynomial with period 6 via the six-case monomial table."""
    if n < 3:
        return 0
    k, r = divmod(n, 6)
    a, b, c = MONOMIAL_TABLE[r]
    return a * k * k + b * k + c


def _choose2(x: int) -> int:
    return x * (x - 1) // 2 if x >= 2 else 0


def p3_binomial(n: int) -> int:
    """Binomial-basis evaluation weighted by the box height census h*."""
    if n < 3:
        return 0
    k, r = divmod(n, 6)
    hs = h_star()
    return (
        hs[r] * _choose2(k + 2)
        + hs[6 + r] * _choose2(k + 1)
        + hs[12 + r] * _choose2(k)
    )


def p3_circulator(n: int) -> int:
    """Circulator form, evaluated in exact integers.

    p(n,3) = (n^2 - 7/6)/12 - (-1)^n / 8 + w(n)/9 where the root-of-unity
    sum w(n) is 2 when 3 | n and -1 otherwise.  Over the common
    denominator 72 the numerator is 6n^2 - 7 - 9(-1)^n + 8w(n), which
    72 must divide.
    """
    if n < 3:
        return 0
    w = 2 if n % 3 == 0 else -1
    sign = -1 if n % 2 else 1
    value, rest = divmod(6 * n * n - 7 - 9 * sign + 8 * w, 72)
    if rest:
        raise ArithmeticError("circulator value is not integral at n=%d: "
                              "%d/72" % (n, 72 * value + rest))
    return value


# The method registry; its order is the order the CLI lists the choices in.
_METHODS = {
    "brute": count_bruteforce,
    "nearest": p3_nearest,
    "monomial": p3_monomial,
    "binomial": p3_binomial,
    "circulator": p3_circulator,
}


def evaluate(n: int, method: str = "monomial") -> QuasiPolyResult:
    """Evaluate p(n,3) by the named method, tagging the result."""
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ValueError("unknown method %r (want one of %s)" % (method, ", ".join(sorted(_METHODS))))
    return QuasiPolyResult(n, fn(n), method)
