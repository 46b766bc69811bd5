"""Benchmark for Figure 14: hyper-join memory buffer sweep."""

from __future__ import annotations

from repro.experiments import fig14_buffer

from repro.testing import run_once


def test_fig14_memory_buffer(benchmark, show):
    result = run_once(
        benchmark, fig14_buffer.run, scale=0.25, rows_per_block=256,
        buffer_sizes=[1, 2, 4, 8, 16, 32],
    )
    show(result)
    blocks = result.series_by_label("orders_blocks_read").y
    times = result.series_by_label("running_time").y
    assert blocks == sorted(blocks, reverse=True), "bigger buffers never read more probe blocks"
    assert times == sorted(times, reverse=True), "runtime improves with buffer size"
    # The improvement flattens out: the last doubling helps far less than the first.
    first_gain = blocks[0] - blocks[1]
    last_gain = blocks[-2] - blocks[-1]
    assert last_gain <= first_gain, "paper: benefit saturates at large buffers"
    # The sweep now drives the real bounded-memory tier: the smallest budget
    # must actually thrash (evictions) and fault every probe re-read from the
    # spill files, and a bigger buffer must fault no more than the smallest.
    faults = result.series_by_label("buffer_faults").y
    evictions = result.series_by_label("buffer_evictions").y
    assert evictions[0] > 0, "smallest budget must evict under pressure"
    assert faults[0] > 0, "cold sweep points must fault blocks in from disk"
    assert faults[-1] <= faults[0], "a bigger buffer never faults more than the smallest"
    # The budget counts the bytes the join reads of a block, so the sweep
    # still sweeps: the smallest buffer re-faults what the largest keeps.
    assert faults[0] > faults[-1], "the smallest buffer must fault more than the largest"
    assert evictions[-1] <= evictions[0], "a bigger buffer never evicts more than the smallest"
