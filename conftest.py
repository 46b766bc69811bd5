"""Suite-wide options for the test and benchmark suites.

``--mmap-buffer-bytes N`` reruns the whole suite on the durable storage
tier: every :class:`~repro.core.AdaptDBConfig` whose caller does not pass
``persistence`` gets ``persistence="mmap"``, and every mmap config whose
caller does not pass ``buffer_bytes`` gets an ``N``-byte block buffer, so
blocks spill, evict and fault throughout while every result must stay
bit-identical to the in-memory default.  An explicit argument always wins.
Generated storage roots go under the system temp dir (set ``TMPDIR`` to
collect them).
"""

from __future__ import annotations


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

    def init_on_the_mmap_tier(self, *args, **kwargs):
        kwargs.setdefault("persistence", "mmap")
        if kwargs["persistence"] == "mmap":
            kwargs.setdefault("buffer_bytes", budget)
        init(self, *args, **kwargs)

    AdaptDBConfig.__init__ = init_on_the_mmap_tier
