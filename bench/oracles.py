"""Output oracles that do not use triparts.

check(job, code, out, file_text) returns None when a job's exit code and
output agree with values computed here, or a one-line reason when they do
not.  Oracles run after the job's timer has stopped.
"""

import json

from workloads import p3


class OracleError(Exception):
    pass


def _expect(cond, msg, *args):
    if not cond:
        raise OracleError(msg % args)


def _report(out, command):
    doc = json.loads(out)
    _expect(doc.get("command") == command, "command is %r, want %r",
            doc.get("command"), command)
    _expect(doc.get("outcome") == "success", "outcome is %r", doc.get("outcome"))
    return doc


def h_star():
    """Box height census from q^3 (1+...+q^5)(1+q^2+q^4)(1+q^3)."""
    poly = [0, 0, 0, 1]
    for factor in ((1, 1, 1, 1, 1, 1), (1, 0, 1, 0, 1), (1, 0, 0, 1)):
        out = [0] * (len(poly) + len(factor) - 1)
        for i, c in enumerate(poly):
            for j, d in enumerate(factor):
                out[i + j] += c * d
        poly = out
    return (poly + [0] * 18)[:18]


def c_ls_histogram(n, m):
    """Class sizes of (l1 - l3) mod m over P(n,3), row by row.

    Row l3 holds l2 = l3 .. (n - l3) // 2, whose differences l1 - l3 fill
    the interval n - 2 l3 - (n - l3) // 2 .. n - 3 l3; a difference array
    adds each interval in O(1).
    """
    diff = [0] * (n + 2)
    for l3 in range(1, n // 3 + 1):
        hi = (n - l3) // 2
        if hi >= l3:
            diff[n - 2 * l3 - hi] += 1
            diff[n - 3 * l3 + 1] -= 1
    counts = [0] * m
    run = 0
    for d in range(n + 1):
        run += diff[d]
        counts[d % m] += run
    return counts


def check_count(job, out, _):
    doc = _report(out, "count")
    want = p3(job["facts"]["n"])
    values = doc["payload"]["values"]
    _expect(values and all(v == want for v in values.values()),
            "values %r, want %d", values, want)


def check_decompose(job, out, _):
    doc = json.loads(out)
    (m1, m2, m3), (t1, t2, t3) = doc["mu"], doc["tau"]
    lam = tuple(job["facts"]["lam"])
    got = (m1 + 6 * t1 + 3 * t2 + 2 * t3, m2 + 3 * t2 + 2 * t3, m3 + 2 * t3)
    _expect(got == lam, "mu + V3 tau = %r, want %r", got, lam)
    _expect(min(t1, t2, t3) >= 0, "tau %r has a negative entry", doc["tau"])
    _expect(0 <= m1 - m2 < 6 and 0 <= m2 - m3 < 3 and 0 < m3 <= 2,
            "mu %r lies outside the fundamental box", doc["mu"])


def check_hstar(job, out, _):
    payload = _report(out, "hstar")["payload"]
    want = h_star()
    _expect(payload["h_star"] == want, "h_star %r, want %r",
            payload["h_star"], want)
    _expect(payload["sum"] == 36 and payload["symmetric"] and payload["gf_match"],
            "sum/symmetric/gf_match %r", payload)


def check_residues(job, out, _):
    m = job["facts"]["m"]
    payload = _report(out, "residues")["payload"]
    period = 6 * m
    _expect(payload["modulus"] == m and payload["period"] == period,
            "modulus/period %r/%r for m=%d", payload["modulus"],
            payload["period"], m)
    residues = set(payload["residues"])
    sample = {(i * 7919) % (2 * period) for i in range(64)}
    for r in residues:
        sample.update((r - 1, r, r + 1))
    for n in sorted(n for n in sample if n >= 0):
        divisible = p3(n) % m == 0
        _expect((n % period in residues) == divisible,
                "height %d: listed=%s but m | p(n,3) is %s",
                n, n % period in residues, divisible)


def check_verify(job, out, _):
    doc = _report(out, "verify")
    facts = job["facts"]
    payload = doc["payload"]
    _expect(doc["inputs"]["max_n"] == facts["max_n"] == payload["max_n"],
            "max_n not echoed: %r", doc["inputs"])
    _expect(payload["modulus"] == facts["m"], "modulus %r", payload["modulus"])
    _expect(payload["characterization_ok"] and not payload["uniformity_violations"],
            "characterization_ok=%r violations=%r",
            payload["characterization_ok"], payload["uniformity_violations"])


def check_histogram(job, out, _):
    facts = job["facts"]
    payload = _report(out, "histogram")["payload"]
    counts = payload["counts"]
    _expect(len(counts) == facts["m"], "%d classes, want %d", len(counts), facts["m"])
    _expect(sum(counts) == payload["total"] == p3(facts["n"]),
            "counts sum to %d, total %r, want p(n,3)=%d",
            sum(counts), payload["total"], p3(facts["n"]))
    _expect(payload["uniform"] == (len(set(counts)) <= 1),
            "uniform flag %r disagrees with counts", payload["uniform"])
    if facts["uniform"]:
        _expect(payload["uniform"], "not uniform on a progression height")
    else:
        want = c_ls_histogram(facts["n"], facts["m"])
        _expect(counts == want, "c_ls counts %r, want %r", counts, want)


def _check_cycles(n, m, cycles):
    """cycles: list of (partitions, cranks) in output order."""
    seen = set()
    for ci, (parts, cranks) in enumerate(cycles):
        _expect(len(parts) == len(cranks) and len(parts) % m == 0,
                "cycle %d has length %d, not a multiple of %d", ci, len(parts), m)
        for lam, c in zip(parts, cranks):
            l1, l2, l3 = lam
            _expect(l1 >= l2 >= l3 >= 1 and l1 + l2 + l3 == n,
                    "cycle %d: %r is not a partition of %d", ci, lam, n)
            _expect(c == (l1 - l3) % m, "cycle %d: crank %d at %r", ci, c, lam)
            seen.add((l1, l2, l3))
        for i, c in enumerate(cranks):
            _expect(cranks[i - 1] + 1 - c in (0, m),
                    "cycle %d: crank does not rise by 1 at position %d", ci, i)
    total = sum(len(parts) for parts, _ in cycles)
    _expect(total == len(seen) == p3(n),
            "%d rows, %d distinct, want p(n,3)=%d", total, len(seen), p3(n))


def check_cycles(job, out, _):
    n, m = job["facts"]["n"], job["facts"]["m"]
    if job["facts"]["format"] == "json":
        payload = _report(out, "cycles")["payload"]
        cycles = [(c["partitions"], c["cranks"]) for c in payload["cycles"]]
        _expect(payload["lengths"] == [len(p) for p, _ in cycles],
                "lengths disagree with the cycles")
        _check_cycles(n, m, cycles)
        return
    lines = out.split("\r\n")
    _expect(lines[0] == "cycle_index,position,lambda1,lambda2,lambda3,crank",
            "bad CSV header %r", lines[0])
    _expect(lines[-1] == "", "CSV does not end with CRLF")
    cycles = []
    for line in lines[1:-1]:
        ci, pos, l1, l2, l3, c = (int(x) for x in line.split(","))
        if pos == 0:
            _expect(ci == len(cycles), "cycle index %d out of order", ci)
            cycles.append(([], []))
        _expect(cycles and ci == len(cycles) - 1 and pos == len(cycles[-1][0]),
                "row %r out of order", line)
        cycles[-1][0].append((l1, l2, l3))
        cycles[-1][1].append(c)
    _check_cycles(n, m, cycles)


def check_rectangle(job, out, _):
    facts = job["facts"]
    payload = _report(out, "rectangle")["payload"]
    want = p3(facts["n"])
    _expect((payload["m"], payload["k_prime"], payload["r_prime"], payload["n"])
            == (facts["m"], facts["k_prime"], facts["label"], facts["n"]),
            "inputs not echoed: %r", payload)
    _expect(payload["cover_ok"] and
            payload["cells"] == payload["width"] * payload["height"] == want,
            "cells %r, %r x %r, want p(n,3)=%d", payload["cells"],
            payload["width"], payload["height"], want)


def check_tile(job, out, svg):
    _expect(out == "", "tile wrote %d characters to stdout", len(out))
    circles = svg.count("<circle")
    want = p3(job["facts"]["n"])
    _expect(circles == want, "%d circles, want p(n,3)=%d", circles, want)


CHECKS = {
    "count": check_count,
    "decompose": check_decompose,
    "hstar": check_hstar,
    "residues": check_residues,
    "verify": check_verify,
    "histogram": check_histogram,
    "cycles": check_cycles,
    "rectangle": check_rectangle,
    "tile": check_tile,
}


def check(job, code, out, file_text=None):
    """None when the job succeeded, else a one-line reason."""
    if code != 0:
        return "exit code %r, want 0" % (code,)
    try:
        CHECKS[job["kind"]](job, out, file_text)
    except OracleError as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return "malformed output: %s: %s" % (type(exc).__name__, exc)
    return None
