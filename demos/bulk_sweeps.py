"""
Whole-range sweeps: the box bijection and the cycles, by rows
=============================================================

Both sweeps work on whole rows of P(n,3) instead of single partitions.
The box bijection lam = mu + V3 tau is checked at the two ends of each
row class (fixed smallest part, middle part stepping by 3), along which
mu stays fixed and tau moves by (-1, +1, 0).  The cycle structure of the
stepping permutation comes from the row-level route, which checks the
bijection with n//3 border jumps and writes each orbit out row by row.
The scalar routines stay the reference.
"""

import time

from triparts.congruence import is_divisible
from triparts.cranks import cycle_decomposition, cycle_lengths
from triparts.ehrhart import check_box_bijection
from triparts.partitions import count_bruteforce

t0 = time.time()
checked = sum(check_box_bijection(n) for n in range(501))
assert checked == sum(count_bruteforce(n) for n in range(501))
print("box decomposition verified for all %d partitions with n <= 500 in %.2fs"
      % (checked, time.time() - t0))

# cycle structure of the stepping permutation over a whole height range
m = 5
t0 = time.time()
counts = {}
for n in range(3, 301):
    if not is_divisible(n, m):
        continue
    for length in cycle_lengths(cycle_decomposition(n, m)):
        assert length % m == 0
        counts[length] = counts.get(length, 0) + 1
print("cycle lengths seen for m=%d, n <= 300 (all multiples of %d):" % (m, m))
for length in sorted(counts):
    print("  length %4d: %3d cycle(s)" % (length, counts[length]))
print("swept in %.2fs" % (time.time() - t0))
