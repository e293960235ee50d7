"""Seeded job lists for the three benchmark workloads.

Every job is a CLI argv list plus the facts its oracle needs.  Primes,
qualifying heights, k' values and labels come from the arithmetic in this
file, never from triparts, so the inputs stay the same when the library
is refactored.  Each size is drawn from a narrow window (a few percent of
partitions around a fixed target) so that the cost of a job list does
not depend on the seed; the seed only moves the inputs within it.
"""

import math
import random

WORKLOADS = ("verify_sweep", "crank_export", "small_queries")

LABELS = ("0", "1", "2", "-1", "-2", "2m-2", "2m+1", "-(2m-2)", "-(2m+1)")

# The CLI starts a process pool for the brute counts from this height on.
POOL_MIN_N = 4000


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes(lo, hi, residue):
    """Primes p in [lo, hi] with p % 6 == residue."""
    return [p for p in range(lo, hi + 1) if p % 6 == residue and is_prime(p)]


def p3(n):
    """Number of partitions of n into three positive parts."""
    return (n * n + 6) // 12


def label_value(label, m):
    """Signed residue r' of a progression label: heights n = 6mk' + r'."""
    values = {"0": 0, "1": 1, "2": 2, "-1": -1, "-2": -2,
              "2m-2": 2 * m - 2, "2m+1": 2 * m + 1,
              "-(2m-2)": -(2 * m - 2), "-(2m+1)": -(2 * m + 1)}
    return values[label]


def in_window(n, target_n, tol):
    """True when p(n,3) is within a share tol of p(target_n,3)."""
    return abs(p3(n) - p3(target_n)) <= tol * p3(target_n)


def progression_choices(moduli, labels, target_n, tol):
    """All (m, k', label, n) with n = 6mk' + r' and p(n,3) near p(target_n,3)."""
    out = []
    for m in moduli:
        for label in labels:
            r = label_value(label, m)
            for kp in range(1, target_n // (6 * m) + 3):
                n = 6 * m * kp + r
                if n >= 3 and in_window(n, target_n, tol):
                    out.append((m, kp, label, n))
    return out


def log_uniform_strata(rng, count, lo, hi):
    """count integers, one drawn log-uniformly from each of count equal
    strata of [lo, hi], so the size mix is fixed and only the draws move."""
    a, b = math.log(lo), math.log(hi)
    return [int(math.exp(a + (b - a) * (i + rng.random()) / count))
            for i in range(count)]


def _job(argv, kind, **facts):
    return {"argv": [str(a) for a in argv], "kind": kind, "facts": facts}


def verify_sweep(rng):
    """One prime of each family: the m = 5 (mod 6) sweep is long enough to
    take the pooled brute count, the m = 1 (mod 6) sweep stays serial."""
    m5 = rng.choice(primes(5, 100, 5))
    m1 = rng.choice(primes(7, 100, 1))
    n5 = POOL_MIN_N + rng.randrange(0, 40)
    n1 = 1500 + rng.randrange(0, 40)
    return [_job(["verify", m5, "--max-n", n5], "verify", m=m5, max_n=n5),
            _job(["verify", m1, "--max-n", n1], "verify", m=m1, max_n=n1)]


def _rectangle_argv(m, kp, label):
    # argparse reads a label that starts with "-" as an option unless it
    # comes after "--"
    if label.startswith("-"):
        return ["rectangle", m, kp, "--", label]
    return ["rectangle", m, kp, label]


def crank_export(rng, out_dir):
    """Per-partition work with MB-scale output: cycles as CSV and JSON,
    rectangles on seeded labels (one with a large m), plan and closed
    form histograms, and one tiling picture."""
    jobs = []
    moduli = primes(5, 100, 5)
    for fmt in ("csv", "json"):
        m, kp, label, n = rng.choice(
            progression_choices(moduli, LABELS, 1000, 0.01))
        jobs.append(_job(["cycles", n, m, "--format", fmt], "cycles",
                         n=n, m=m, format=fmt))
    m, kp, label, n = rng.choice(
        progression_choices(primes(80, 130, 5), LABELS, 2018, 0.03))
    jobs.append(_job(_rectangle_argv(m, kp, label), "rectangle",
                     m=m, k_prime=kp, label=label, n=n))
    small = progression_choices(moduli, LABELS, 600, 0.02)
    for _ in range(9):
        m, kp, label, n = rng.choice(small)
        jobs.append(_job(_rectangle_argv(m, kp, label), "rectangle",
                         m=m, k_prime=kp, label=label, n=n))
    m, kp, label, n = rng.choice(
        progression_choices(moduli, LABELS, 1000, 0.02))
    jobs.append(_job(["histogram", n, m, "--crank", "plan",
                      "--r-prime=" + label], "histogram",
                     n=n, m=m, uniform=True))
    m, kp, label, n = rng.choice(
        progression_choices(primes(5, 200, 5), ("2m-2",), 1000, 0.03))
    jobs.append(_job(["histogram", n, m, "--crank", "closed"], "histogram",
                     n=n, m=m, uniform=True))
    n = 600 + rng.randrange(0, 6)
    path = "%s/tile-%d.svg" % (out_dir, n)
    jobs.append(_job(["tile", n, path], "tile", n=n, path=path))
    return jobs


def small_queries(rng):
    """Interactive one-off questions with a fixed mix, in seeded order."""
    jobs = []
    for n in log_uniform_strata(rng, 300, 10, 200000):
        jobs.append(_job(["count", n], "count", n=n))
    for residue in (5, 1):
        for x in log_uniform_strata(rng, 150, 7, 200000):
            p = x
            while not (p % 6 == residue and is_prime(p)):
                p += 1
            jobs.append(_job(["residues", p], "residues", m=p))
    for n in log_uniform_strata(rng, 150, 3, 10 ** 6):
        l3 = rng.randint(1, n // 3)
        l2 = rng.randint(l3, (n - l3) // 2)
        lam = (n - l2 - l3, l2, l3)
        jobs.append(_job(["decompose", *lam], "decompose", lam=lam))
    for _ in range(50):
        jobs.append(_job(["hstar"], "hstar"))
    moduli = primes(5, 100, 5) + primes(7, 100, 1)
    for n in log_uniform_strata(rng, 200, 10, 20000):
        m = rng.choice(moduli)
        jobs.append(_job(["histogram", n, m, "--fast"], "histogram",
                         n=n, m=m, uniform=None))
    rng.shuffle(jobs)
    return jobs


def generate(workload, seed, out_dir=".bench_out"):
    """The job list of a workload; the same seed gives the same list."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "verify_sweep":
        return verify_sweep(rng)
    if workload == "crank_export":
        return crank_export(rng, out_dir)
    if workload == "small_queries":
        return small_queries(rng)
    raise ValueError("unknown workload %r (want one of %s)"
                     % (workload, ", ".join(WORKLOADS)))
