"""Suite-wide options for the test and benchmark suites.

``--mmap-buffer-bytes N`` reruns the whole suite on the durable storage
tier: every :class:`~repro.core.AdaptDBConfig` whose caller does not pass
``persistence`` gets ``persistence="mmap"``, and every mmap config whose
caller does not pass ``buffer_bytes`` gets an ``N``-byte block buffer, so
blocks spill, evict and fault throughout while every result must stay
bit-identical to the in-memory default.  An explicit argument always wins.
The run counts the configs it moved to the mmap tier, reports the count,
and fails if it is zero: then the option took no effect.  Generated storage
roots go under the system temp dir (set ``TMPDIR`` to collect them).
"""

from __future__ import annotations

import pytest

#: How many configs ``--mmap-buffer-bytes`` moved to the mmap tier.
MOVED_TO_MMAP = pytest.StashKey[list[int]]()


def pytest_addoption(parser):
    parser.addoption(
        "--mmap-buffer-bytes",
        type=int,
        default=None,
        metavar="N",
        help="default every config that does not pick its persistence to the "
        "mmap tier with an N-byte block buffer",
    )


def pytest_configure(config):
    budget = config.getoption("--mmap-buffer-bytes")
    if budget is None:
        return
    from repro.core.config import AdaptDBConfig

    init = AdaptDBConfig.__init__
    moved = config.stash[MOVED_TO_MMAP] = [0]

    def init_on_the_mmap_tier(self, *args, **kwargs):
        if "persistence" not in kwargs:
            kwargs["persistence"] = "mmap"
            moved[0] += 1
        if kwargs["persistence"] == "mmap":
            kwargs.setdefault("buffer_bytes", budget)
        init(self, *args, **kwargs)

    AdaptDBConfig.__init__ = init_on_the_mmap_tier


def pytest_sessionfinish(session, exitstatus):
    moved = session.config.stash.get(MOVED_TO_MMAP, None)
    if moved is not None and moved[0] == 0 and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    moved = config.stash.get(MOVED_TO_MMAP, None)
    if moved is not None:
        verdict = "" if moved[0] else " (the option took no effect: this run fails)"
        terminalreporter.write_line(
            f"--mmap-buffer-bytes moved {moved[0]} configs to the mmap tier{verdict}"
        )
