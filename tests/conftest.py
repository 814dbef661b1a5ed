"""Shared test inputs."""

import pytest

from gapsym import TwoGen
from gapsym.oracle import enumerate_lean_sets
from gapsym.survey import coprime_pairs


@pytest.fixture(scope="session")
def lean_sets_to_12():
    """Every lean set of every coprime pair (alpha, beta) with beta <= 12,
    103,102 in all, as {(alpha, beta): [values, ...]} in the order of
    `coprime_pairs(12)` and of `enumerate_lean_sets`.

    Three sweeps read them, so they are enumerated once per session; the
    value lists are shared and must not be changed.
    """
    return {(alpha, beta): list(enumerate_lean_sets(TwoGen(alpha, beta)))
            for alpha, beta in coprime_pairs(12)}
