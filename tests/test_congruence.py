import pytest
from hypothesis import given, strategies as st

from triparts import congruence
from triparts.congruence import (
    characterize,
    is_divisible,
    is_prime,
    non_witnessed_residues,
    residues_neg,
    residues_pos,
    sqrt_minus3,
    verify_characterization,
)
from triparts.quasipoly import p3_monomial


def test_residues_neg_frozen():
    assert residues_neg(5).residues == frozenset({0, 1, 2, 8, 11, 19, 22, 28, 29})
    assert residues_neg(11).residues == frozenset(
        {0, 1, 2, 20, 23, 43, 46, 64, 65}
    )
    assert len(residues_neg(17).residues) == 9
    assert len(residues_neg(23).residues) == 9


def test_residues_pos_frozen():
    assert residues_pos(7).residues == frozenset(
        {0, 1, 2, 9, 13, 16, 26, 29, 33, 40, 41}
    )
    assert len(residues_pos(13).residues) == 11
    assert len(residues_pos(19).residues) == 11


def test_sqrt_minus3_pins():
    assert sqrt_minus3(7) == (2, 5)
    assert sqrt_minus3(13) == (6, 7)
    assert sqrt_minus3(19) == (4, 15)
    for m in (7, 13, 19, 31, 37):
        s, t = sqrt_minus3(m)
        assert (s * s + 3) % m == 0
        assert (t * t + 3) % m == 0
        assert (s + t) % m == 0
        assert s < t


def _sqrt_minus3_by_scan(p):
    for s in range(1, p):
        if (s * s + 3) % p == 0:
            return (s, p - s) if s < p - s else (p - s, s)
    return None


def test_sqrt_minus3_matches_linear_scan():
    primes = [p for p in range(7, 6000, 6) if is_prime(p)]
    assert len(primes) > 350
    for p in primes:
        assert sqrt_minus3(p) == _sqrt_minus3_by_scan(p), p


def test_sqrt_minus3_rejects_a_root_that_fails_to_check(monkeypatch):
    # for the composite 25, 2^((25-1)/3) = 6 is no cube root of unity and
    # 2*6+1 = 13 does not square to -3
    monkeypatch.setattr(congruence, "is_prime", lambda m: True)
    with pytest.raises(ArithmeticError):
        sqrt_minus3(25)


def test_negation_closure():
    for m in (5, 11, 17, 23):
        ch = residues_neg(m)
        assert {(-r) % ch.period for r in ch.residues} == ch.residues
    for m in (7, 13, 19):
        ch = residues_pos(m)
        assert {(-r) % ch.period for r in ch.residues} == ch.residues


def test_minus_family_avoids_3_mod_6():
    # every characterized residue class for m = 5 (mod 6) misses 3 mod 6
    for m in (5, 11, 17, 23, 29):
        assert all(r % 6 != 3 for r in residues_neg(m).residues)


def test_characterize_dispatch():
    c = characterize(5)
    assert (c.modulus, c.period, c.family) == (5, 30, "minus_one")
    assert c.sqrt_minus3 is None

    c = characterize(7)
    assert (c.modulus, c.period, c.family) == (7, 42, "plus_one")
    assert c.sqrt_minus3 == (2, 5)


@pytest.mark.parametrize("bad", [4, 6, 9, 25, 35, 2, 3, 1, 49])
def test_characterize_rejects(bad):
    with pytest.raises(ValueError):
        characterize(bad)


def test_is_divisible_pins():
    assert is_divisible(22, 5)
    assert is_divisible(9, 7)
    assert not is_divisible(10, 5)
    assert p3_monomial(22) % 5 == 0
    assert p3_monomial(9) % 7 == 0
    assert p3_monomial(10) % 5 != 0


def test_verify_small_windows():
    for m, bound in ((5, 300), (7, 420), (11, 660)):
        rep = verify_characterization(m, bound)
        assert rep.ok, rep
        assert rep.first_mismatch is None
        assert rep.checked == bound + 1


def test_verify_reports_the_first_mismatch(monkeypatch):
    # a characterization of 5 without the residue 8: p(8,3) = 5 is divisible
    wrong = residues_neg(5)._replace(residues=residues_neg(5).residues - {8})
    monkeypatch.setattr(congruence, "characterize", lambda m: wrong)
    rep = verify_characterization(5, 300)
    assert (rep.ok, rep.first_mismatch, rep.checked) == (False, 8, 9)


def test_non_witnessed_residues():
    assert non_witnessed_residues(7) == frozenset({9, 33})
    with pytest.raises(ValueError):
        non_witnessed_residues(5)


@given(st.integers(min_value=0, max_value=4000))
def test_characterization_is_exact_mod5(n):
    ch = residues_neg(5)
    assert (p3_monomial(n) % 5 == 0) == (n % ch.period in ch.residues)


@given(st.integers(min_value=0, max_value=4000))
def test_characterization_is_exact_mod7(n):
    ch = residues_pos(7)
    assert (p3_monomial(n) % 7 == 0) == (n % ch.period in ch.residues)


def _trial_division(m):
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def test_is_prime_helper():
    assert [p for p in range(2, 40) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert not is_prime(1)
    assert not is_prime(0)
    for m in range(-3, 2 * 10 ** 5):
        assert is_prime(m) == _trial_division(m), m


def _strong_probable_prime(m, a):
    """True when odd m > 2 passes one Miller-Rabin round to base a."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, m)
    if x in (1, m - 1):
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def test_is_prime_switches_to_thirteen_bases_at_jaeschke_bound():
    # below 3215031751 only the bases 2, 3, 5, 7 run: 25326001 passes
    # 2, 3 and 5, and 7 exposes it
    assert 2251 * 11251 == 25326001
    assert all(_strong_probable_prime(25326001, a) for a in (2, 3, 5))
    assert not is_prime(25326001)
    # 3215031751 passes all four, so it is composite only if the bound
    # is strict and the thirteen bases run from it on
    assert 151 * 751 * 28351 == 3215031751
    assert all(_strong_probable_prime(3215031751, a) for a in (2, 3, 5, 7))
    assert not is_prime(3215031751)


# (psi_k, k): psi_k is the least strong pseudoprime to the first k prime
# bases, and psi_7 = psi_8, psi_9 = psi_10 = psi_11; psi_13 is the bound
_PSI = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
        (2152302898747, 5), (3474749660383, 6), (341550071728321, 8),
        (3825123056546413051, 11), (318665857834031151167461, 12))
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # each psi_k passes the first k bases and fails the next: composite
    for psi, k in _PSI:
        assert all(_strong_probable_prime(psi, a) for a in _PRIME_BASES[:k])
        assert not _strong_probable_prime(psi, _PRIME_BASES[k])
        assert not is_prime(psi), psi
    # a strong pseudoprime to the bases 2, 3, 6 and 7 but not 5, so a
    # small-base set without 5 would call it prime
    assert [_strong_probable_prime(2284453, a) for a in (2, 3, 5, 6, 7)] == [
        True, True, False, True, True]
    assert not is_prime(2284453)
    assert not is_prime(561)  # Carmichael
    assert is_prime(1000000000000000003)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(1000000007 * 1000000009)


def test_is_prime_refuses_beyond_its_proven_bound():
    limit = 3317044064679887385961981
    with pytest.raises(ValueError):
        is_prime(limit)
    with pytest.raises(ValueError):
        characterize(limit * 6 + 5)
