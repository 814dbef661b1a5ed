"""Staircase paths of semimodules over <5,7>, and why two different
computations of the conductor and delta invariant agree.

Run: python3 demos/lattice_paths_and_syzygies.py
"""

from gapsym import (
    delta_formula,
    lattice_path,
    make_semigroup,
    make_semimodule,
    sm_conductor_formula,
)
from gapsym.oracle import brute_syzygy

S = make_semigroup([5, 7])
print(f"semigroup <5,7>: conductor {S.conductor}, gaps {list(S.gaps)}")

# The lattice picture: every gap g is 35 - 5a - 7b for a unique cell (a,b).
T = S.two_gen()
for a, b, g in T.lattice_gaps():
    print(f"  cell ({a},{b}) -> gap {g}")

# A module generated by [0,9,11,8].  The nonzero generators sit at the
# east-to-south turns of a staircase path; the opposite corners carry the
# minimal generators of the syzygy module.
d = make_semimodule(S, [0, 9, 11, 8])
couple = lattice_path(d)
print(f"\nmodule {list(d.min_generators)}")
print(f"  generator cells : {couple.es_turns}")
print(f"  corner cells    : {couple.se_turns}")
print(f"  corner values   : {couple.h_values}")
print(f"  largest corner  : {couple.max_syzygy} at {couple.max_point}")

# The same syzygy generators, recomputed from the raw definition as a union
# of pairwise intersections of shifted semigroup copies.
_, gens = brute_syzygy(S, [0, 9, 11, 8], 60)
print(f"  brute syzygies  : {gens}")

# Conductor and delta: once through the corner formulas, once by scanning.
print(f"\nconductor: formula {sm_conductor_formula(d)}, scan {d.conductor}")
print(f"delta    : formula {delta_formula(d)}, scan {d.delta}")
print(f"missing naturals of the module: {list(d.gap_list)}")
