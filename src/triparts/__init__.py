"""triparts: partitions of n into exactly three parts.

Exact enumeration and counting, the lattice-box decomposition behind the
quasipolynomial formulas, divisibility characterizations for primes
congruent to +-1 mod 6, and the crank constructions witnessing them.
"""

__version__ = "0.1.0"

from .partitions import (
    enumerate_partitions,
    count_bruteforce,
    column_multiplicities,
    mult_to_partition,
)
from .ehrhart import (
    V3,
    GENERATORS,
    fundamental_points,
    h_star,
    h_star_from_gf,
    triangle,
    box_decompose,
    box_compose,
    tile_partition_triangle,
)
from .quasipoly import (
    p3_nearest,
    p3_monomial,
    p3_binomial,
    p3_circulator,
    evaluate,
)
from .congruence import (
    residues_neg,
    residues_pos,
    sqrt_minus3,
    is_divisible,
    verify_characterization,
)
from .cranks import (
    c_ls,
    histogram,
    c_ls_histogram,
    c_ls_histograms,
    vertex_crank_values,
    step_deltas,
    AffineMap2,
    RectanglePlan,
    arrangement_2m_minus_2,
    build_arrangement,
    ehrhart_crank,
    ehrhart_crank_closed_form,
    rectangle_cycle_step,
    step_f,
    cycle_decomposition,
)
