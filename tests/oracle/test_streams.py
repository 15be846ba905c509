"""The vectorized retransmit streams against numpy's own generators.

:class:`repro.faults.streams.SeededStreams` replays ``SeedSequence`` and
PCG64 seeding on arrays; ``np.random.default_rng((seed, iteration,
transfer)).random()`` is the reference for every cell, including seeds
and indices that take more than one 32-bit entropy word.  The batch
retransmit matrix must equal the event path's scalar calls cell by cell.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultSchedule, RetransmitFault
from repro.faults.streams import SeededStreams, int_words
from repro.hardware import cluster_for_gpus
from repro.network import Fabric

SEEDS = [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**33 + 5, 2**64 - 1,
         2**64, 2**64 + 3, 123456789]
ITERATIONS = np.array([0, 0, 1, 5, 2**32 - 1, 2**32, 2**40, 3, 0])
TRANSFERS = np.array([0, 2**32, 3, 1, 0, 7, 2**33 + 1, 2**32 - 1, 9])


@pytest.mark.parametrize("seed", SEEDS)
def test_every_cell_matches_default_rng(seed):
    streams = SeededStreams(seed, ITERATIONS, TRANSFERS)
    cells = np.arange(ITERATIONS.size)
    draws = np.stack([streams.random(cells) for _ in range(7)], axis=1)
    for c in cells:
        expected = np.random.default_rng(
            (seed, int(ITERATIONS[c]), int(TRANSFERS[c]))).random(7)
        np.testing.assert_array_equal(draws[c], expected)


def test_subsets_advance_independently():
    streams = SeededStreams(11, np.arange(6), np.zeros(6, dtype=np.int64))
    first = streams.random(np.arange(6))
    second = streams.random(np.array([1, 4]))
    third = streams.random(np.array([4]))
    for cell, expected in ((1, [first[1], second[0]]),
                           (4, [first[4], second[1], third[0]])):
        ref = np.random.default_rng((11, cell, 0)).random(len(expected))
        np.testing.assert_array_equal(expected, ref)


def test_int_words():
    assert int_words(0) == [0]
    assert int_words(2**32) == [0, 1]
    assert int_words(2**64 + 3) == [3, 0, 1]
    with pytest.raises(ValueError):
        int_words(-1)


@pytest.mark.parametrize("seed", [0, 11, 2**40 + 1])
def test_retransmit_matrix_matches_scalar_calls(seed):
    cluster = cluster_for_gpus(8)
    schedule = FaultSchedule(seed=seed, retransmits=[
        RetransmitFault(drop_rate=0.5, timeout_s=1e-3, max_retries=4),
        RetransmitFault(drop_rate=0.7, backoff=1.5, start_iteration=6,
                        duration_iterations=5)])
    rng = np.random.default_rng(seed % 1000)
    durations = rng.uniform(1e-4, 1e-2, size=(20, 5))
    durations[3, 2] = 0.0  # zero-length transfers never draw
    batch = FaultInjector(schedule, cluster, Fabric(cluster))
    delays, replays = batch.retransmit_delay_range(
        batch.resolve_range(2, 22), durations)
    scalar = FaultInjector(schedule, cluster, Fabric(cluster))
    for row in range(20):
        for t in range(5):
            if durations[row, t] <= 0:
                # The event path skips the call for zero-length spans.
                continue
            d, r = scalar.retransmit_delay(2 + row, t, durations[row, t])
            assert delays[row, t] == d  # bitwise
            assert replays[row, t] == r
    assert replays.sum() > 0
    assert (delays[3, 2], replays[3, 2]) == (0.0, 0)
