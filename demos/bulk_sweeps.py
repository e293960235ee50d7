"""
Whole-range sweeps: array box decomposition and row-level cycles
================================================================

The box decomposition runs on numpy arrays of every partition of a height
at once; the cycle structure of the stepping permutation comes from the
row-level route, which checks the bijection with n//3 border jumps and
writes each orbit out row by row.  The scalar routines stay the reference.
"""

import time

from triparts.bulk import check_box_bijection
from triparts.congruence import is_divisible
from triparts.cranks import cycle_decomposition, cycle_lengths

t0 = time.time()
checked = sum(check_box_bijection(n) for n in range(501))
print("box decomposition round-trips verified for %d partitions in %.2fs"
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
