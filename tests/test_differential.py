"""Closed forms against brute-force recomputation over exhaustive lean sets.

The full sweep up to 12 runs in the acceptance suite; this module keeps a
faster bound for the development loop plus the double-dual and interleaving
properties at their stated sizes.
"""

import random

import pytest

from gapsym import (
    PrincipalModule,
    dual_generators,
    delta_formula,
    gap_order_leq,
    lattice_path,
    make_semigroup,
    make_semimodule,
    sm_conductor_formula,
    syzygy_generators,
)
from gapsym.oracle import brute_dual, brute_syzygy, enumerate_lean_sets
from gapsym.semigroup import _bits
from gapsym.semimodule import _dual_mask
from gapsym.survey import coprime_pairs


def scan_bound(S):
    a, b = S.generators
    return S.conductor + max(b, 12) + a * b


def test_closed_forms_match_oracles_up_to_10():
    for alpha, beta in coprime_pairs(10):
        S = make_semigroup([alpha, beta])
        T = S.two_gen()
        bound = scan_bound(S)
        for values in enumerate_lean_sets(T):
            if len(values) < 2:
                continue
            d = make_semimodule(S, values)
            assert d.min_generators == tuple(values)
            couple = lattice_path(d)
            _, syz = brute_syzygy(S, values, bound)
            assert sorted(couple.h_values) == syz
            assert syzygy_generators(d) == syz
            assert sm_conductor_formula(d) == d.conductor
            assert delta_formula(d) == d.delta
            _, dgens = brute_dual(S, values, bound)
            assert dual_generators(d) == dgens
            assert _bits(_dual_mask(d)) == dgens


def test_scans_match_oracles_on_arbitrary_lists():
    # unsorted, duplicated and non-lean lists; the oracles scan to twice the
    # width the scans use
    rng = random.Random(20201107)
    for gens in ([1], [2, 3], [4, 6, 13], [5, 7, 9], [6, 9, 20], [7, 11, 13, 17]):
        S = make_semigroup(gens)
        top = S.conductor + 2 * S.generators[-1]
        for _ in range(300):
            values = [rng.randint(0, top) for _ in range(rng.randint(1, 6))]
            values += rng.sample(values, rng.randint(0, len(values)))
            rng.shuffle(values)
            d = make_semimodule(S, values)
            bound = 2 * (S.conductor + S.multiplicity + max(d.min_generators))
            assert _bits(_dual_mask(d)) == brute_dual(S, d.min_generators, bound)[1], d
            if d.ed < 2:
                with pytest.raises(PrincipalModule):
                    syzygy_generators(d)
            else:
                assert syzygy_generators(d) == brute_syzygy(S, d.min_generators, bound)[1], d


def test_syzygy_values_interleave_along_the_path():
    for alpha, beta in coprime_pairs(10):
        S = make_semigroup([alpha, beta])
        for values in enumerate_lean_sets(S.two_gen()):
            if len(values) < 2:
                continue
            corners = lattice_path(make_semimodule(S, values)).se_turns
            for p, q in zip(corners, corners[1:]):
                assert gap_order_leq(p, q)


def test_double_dual_is_identity_up_to_12(lean_sets_to_12):
    for (alpha, beta), lean_sets in lean_sets_to_12.items():
        S = make_semigroup([alpha, beta])
        for values in lean_sets:
            d = make_semimodule(S, values)
            dd = make_semimodule(S, dual_generators(make_semimodule(S, dual_generators(d))))
            assert dd.min_generators == d.min_generators, (alpha, beta, values)
