"""Sequence and LatticeState as values: equality is equality of maps on Z."""

import numpy as np

from al_ist.reference import LatticeState
from al_ist.sequence import Sequence


def seq(offset, values):
    return Sequence(offset, np.asarray(values, dtype=np.complex128))


def test_sequences_with_different_values_differ():
    # The generated __eq__ compared the offsets only.
    assert seq(0, [0.1]) != seq(0, [0.2])
    assert seq(0, [0.1, 0.2]) != seq(0, [0.1])
    assert seq(0, [0.1]) != seq(1, [0.1])


def test_same_map_on_z_is_equal_and_hashes_alike():
    q = seq(3, [0.1, 0.0, -0.2j])
    for twin in (
        seq(1, [0.0, 0.0, 0.1, 0.0, -0.2j, 0.0]),  # zero padding
        seq(3, [0.1, complex(-0.0, -0.0), -0.2j]),  # a -0 site
    ):
        assert q == twin and hash(q) == hash(twin)
    assert len({q, *(q.shifted(0), q.windowed(0, 9))}) == 1


def test_zero_maps_are_equal_whatever_their_block():
    zeros = [seq(-4, []), seq(7, [0.0, 0.0]), seq(0, [complex(-0.0, 0.0)])]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)


def test_lattice_states_compare_their_sequences_by_value():
    state = LatticeState(seq(0, [0.1]), 1.0)
    assert state == LatticeState(seq(0, [0.1, 0.0]), 1.0)
    assert hash(state) == hash(LatticeState(seq(0, [0.1, 0.0]), 1.0))
    assert state != LatticeState(seq(0, [0.2]), 1.0)
