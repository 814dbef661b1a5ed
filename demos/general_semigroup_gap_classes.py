"""Beyond two generators: per-gap module diagnostics for <4,6,13>, the
zero-Wilf counterexamples, and the conductor classes that generalize the
reflection pairing.

Run: python3 demos/general_semigroup_gap_classes.py
"""

from gapsym import (
    gap_conductor_partition,
    is_fixed_point,
    make_semigroup,
    make_semimodule,
    syzygy,
    syzygy_generators,
    zero_wilf_survey_general,
)

S = make_semigroup([4, 6, 13])
print(f"<4,6,13>: gaps {list(S.gaps)}")
print(f"{'module':>8} {'syzygies':>14} {'normalized':>12} {'Wilf':>5}")
for g in S.gaps:
    d = make_semimodule(S, [0, g])
    syz = syzygy_generators(d)
    norm = list(syzygy(d).min_generators)
    print(f"{str([0, g]):>8} {str(syz):>14} {str(norm):>12} {d.wilf:>5}")

# For two generators, Wilf number zero forces a fixed point of the
# normalize-after-syzygy map.  With three generators that breaks:
print("\nzero-Wilf gaps of <10,14,27> (gap, Wilf, fixed, selfdual, symmetric):")
for row in zero_wilf_survey_general(make_semigroup([10, 14, 27])):
    print(f"  {row}")

print("zero-Wilf gaps of <10,14,29> are all fixed points:")
for g, _, fixed, _, _ in zero_wilf_survey_general(make_semigroup([10, 14, 29])):
    print(f"  gap {g}: fixed {fixed}")

# ... and an embedding-dimension-4 module with Wilf number zero that is not
# a fixed point either:
d = make_semimodule(make_semigroup([5, 8]), [0, 4, 6, 7])
print(f"\n<5,8> module {list(d.min_generators)}: "
      f"Wilf {d.wilf}, fixed point {is_fixed_point(d)}")

# Gaps sharing the conductor of their [0,g] module generalize the
# reflection pairing; unpaired members of odd classes are self-symmetric.
for gens in ([7, 8], [4, 6, 13]):
    print(f"\nconductor classes of <{','.join(map(str, gens))}>:")
    for cls in gap_conductor_partition(make_semigroup(gens)):
        extra = f", self-symmetric {cls.self_symmetric}" if cls.self_symmetric is not None else ""
        print(f"  c={cls.conductor}: members {list(cls.members)}, pairs {list(cls.pairs)}{extra}")
