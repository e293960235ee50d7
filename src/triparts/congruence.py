"""When does a prime divide p(n,3)?

For primes m with m % 6 == 5 and primes m' with m' % 6 == 1 the divisible
heights n form a finite union of arithmetic progressions mod 6m.  This
module builds those residue sets and checks them against brute force.
"""

from collections import namedtuple

from .partitions import count_bruteforce

ResidueCharacterization = namedtuple(
    "ResidueCharacterization",
    ["modulus", "period", "residues", "family", "sqrt_minus3"],
)

VerifyReport = namedtuple("VerifyReport", ["ok", "first_mismatch", "checked"])


# Miller-Rabin with the first thirteen primes as bases is exact below the
# smallest strong pseudoprime to all of them (Sorenson and Webster, 2015);
# the bases 2, 3, 5, 7 are exact below 3215031751, the smallest strong
# pseudoprime to all four (Jaeschke, 1993).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_MR_SMALL_BASES = (2, 3, 5, 7)
_MR_SMALL_LIMIT = 3215031751


def is_prime(m):
    """Deterministic Miller-Rabin primality, O(log m) multiplications per
    base: four bases below 3215031751, thirteen above.  Raises ValueError
    for m >= 3317044064679887385961981, where the fixed bases are no
    longer proven."""
    if m >= _MR_LIMIT:
        raise ValueError("primality is decided only below %d, got %d"
                         % (_MR_LIMIT, m))
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_SMALL_BASES if m < _MR_SMALL_LIMIT else _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _pm_closure(vals, period):
    out = set()
    for v in vals:
        out.add(v % period)
        out.add((-v) % period)
    return frozenset(out)


def residues_neg(m):
    """Residue characterization for a prime m with m % 6 == 5.

    m | p(n,3) exactly when n mod 6m is one of +-0, +-1, +-2, +-(2m-2),
    +-(2m+1): nine distinct residues.
    """
    if not is_prime(m) or m % 6 != 5:
        raise ValueError("need a prime congruent to 5 mod 6, got %r" % (m,))
    period = 6 * m
    res = _pm_closure((0, 1, 2, 2 * m - 2, 2 * m + 1), period)
    return ResidueCharacterization(m, period, res, "minus_one", None)


def sqrt_minus3(mp):
    """Both square roots of -3 modulo a prime mp with mp % 6 == 1.

    3 divides mp - 1, so w = a^((mp-1)/3) is a cube root of unity, and a
    primitive one for the first a with w != 1.  Then w^2 + w + 1 = 0 and
    (2w + 1)^2 = -3: O(log mp) multiplications per base tried.
    """
    if not is_prime(mp) or mp % 6 != 1:
        raise ValueError("need a prime congruent to 1 mod 6, got %r" % (mp,))
    for a in range(2, mp):
        w = pow(a, (mp - 1) // 3, mp)
        if w != 1:
            s = (2 * w + 1) % mp
            if (s * s + 3) % mp == 0:
                return (s, mp - s) if s < mp - s else (mp - s, s)
            break
    raise ArithmeticError("no square root of -3 modulo %d; %d is not a valid modulus" % (mp, mp))


def residues_pos(mp):
    """Residue characterization for a prime mp with mp % 6 == 1.

    mp | p(n,3) exactly when n mod 6mp is one of +-0, +-1, +-2, +-(2mp-1),
    +-(2mp+2), +-(3mp+s(mp-1)) where s*s = -3 mod mp: eleven residues.
    The +- closure makes the choice between the two roots immaterial.
    """
    roots = sqrt_minus3(mp)
    s = roots[0]
    period = 6 * mp
    res = _pm_closure(
        (0, 1, 2, 2 * mp - 1, 2 * mp + 2, 3 * mp + s * (mp - 1)), period
    )
    return ResidueCharacterization(mp, period, res, "plus_one", roots)


def characterize(m):
    """Dispatch on m mod 6. Raises ValueError for unsupported moduli."""
    if m % 6 == 5:
        return residues_neg(m)
    if m % 6 == 1 and m > 1:
        return residues_pos(m)
    raise ValueError("modulus %r is not a prime congruent to +-1 mod 6" % (m,))


def is_divisible(n, m):
    """True iff m | p(n,3), decided by the residue characterization alone."""
    ch = characterize(m)
    return n % ch.period in ch.residues


def non_witnessed_residues(mp):
    """The +-(3mp + s(mp-1)) residue pair for the plus_one family.

    On these two classes the divisibility holds but the largest-minus-
    smallest statistic does not split the partitions evenly.
    """
    return _non_witnessed(residues_pos(mp))


def _non_witnessed(ch):
    """non_witnessed_residues from a plus_one characterization ch; the
    CLI's residues and verify call it with the ch they already hold."""
    mp, s = ch.modulus, ch.sqrt_minus3[0]
    return _pm_closure((3 * mp + s * (mp - 1),), ch.period)


def verify_characterization(m, n_max):
    """Compare is_divisible against brute-force counting for all n <= n_max.

    Returns VerifyReport(ok, first_mismatch, checked).
    """
    ch = characterize(m)
    for n in range(n_max + 1):
        predicted = n % ch.period in ch.residues
        actual = count_bruteforce(n) % m == 0
        if predicted != actual:
            return VerifyReport(False, n, n + 1)
    return VerifyReport(True, None, n_max + 1)
