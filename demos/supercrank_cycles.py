"""
The largest-minus-smallest crank and its cycling permutation
============================================================

c_ls(lam) = (lam1 - lam3) mod m splits P(n,3) into m equal classes
whenever m divides p(n,3), for every prime m = 5 (mod 6) at once.  The
witnessing bijection is a permutation whose steps raise c_ls by one.
"""

from triparts import c_ls, cycle_decomposition, histogram, step_f
from triparts.cranks import cycle_lengths, is_uniform, permutation_cycles, row_permutation

n, m = 22, 5
h = histogram(n, m, c_ls)
print("c_ls histogram of P(%d,3) mod %d: %s  uniform=%s"
      % (n, m, list(h.counts), is_uniform(h)))

# Interior steps slide along a row of constant smallest part; rows end on
# the border lam2 == lam3, which jumps to the top of another row: the rows
# are sent, in order, onto the rows of one parity and then of the other,
# each block rotated.
lam = (18, 3, 1)
print("interior step:", lam, "->", step_f(lam, m))
lam = (20, 1, 1)
print("border jump:  ", lam, "->", step_f(lam, m))

dec = cycle_decomposition(n, m)
print("\ncycle lengths:", cycle_lengths(dec))
for cyc in dec.cycles:
    cranks = [c_ls(lam, m) for lam in cyc]
    shifts = {(b - a) % m for a, b in zip(cranks, cranks[1:])}
    print("cycle of %2d starting %s, crank shifts %s" % (len(cyc), cyc[0], shifts))

# the border jumps induce a permutation of the rows themselves
print("row permutation:", permutation_cycles(row_permutation(n, m)))

# every qualifying height splits evenly, all the way up
bad = [k for k in range(3, 500)
       if is_uniform(histogram(k, m, c_ls)) != (k % 30 in {0, 1, 2, 8, 11, 19, 22, 28, 29})]
print("mismatches below 500:", bad)
