"""Result containers and pretty-printing shared by every experiment driver.

Each experiment module reproduces one figure of the paper's evaluation and
returns an :class:`ExperimentResult`: a set of labelled series (one per line
or bar group in the original figure) plus free-form notes.  The benchmark
harness prints these as aligned text tables so paper-vs-measured comparisons
can be recorded in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exec.tasks import simulate

#: Runtime models a figure driver can report: the paper's idealised serial
#: sum spread perfectly over the cluster, the task schedule's makespan (what
#: a real cluster waits for, stragglers included), or the schedule played
#: out event by event (makespan plus barrier and bandwidth stalls).
RUNTIME_MODELS = ("serial", "makespan", "simulated")


def runtime_seconds(result, runtime_model: str = "serial") -> float:
    """One :class:`~repro.exec.result.QueryResult`'s runtime under a model.

    Every model is a read of the result, whichever backend produced it:
    ``"serial"`` is ``runtime_seconds`` (the paper's model), ``"makespan"``
    is ``makespan_cost_units`` (one cost unit per modelled second), and
    ``"simulated"`` adds to that makespan the stall
    :func:`~repro.exec.tasks.simulate` finds in the result's schedule — so
    cost a baseline charged into the result's loads moves all three alike.

    Raises:
        ValueError: on an unknown model name.
    """
    if runtime_model not in RUNTIME_MODELS:
        raise ValueError(
            f"unknown runtime model {runtime_model!r}; choose from {RUNTIME_MODELS}"
        )
    if runtime_model == "serial":
        return result.runtime_seconds
    if runtime_model == "makespan":
        return result.makespan_cost_units
    schedule = result.schedule
    return result.makespan_cost_units + (
        simulate(schedule).finished_at - schedule.makespan
    )


def runtime_series(results, runtime_model: str = "serial") -> list[float]:
    """Per-query runtimes of ``results`` under the chosen model."""
    return [runtime_seconds(result, runtime_model) for result in results]


@dataclass
class Series:
    """One labelled data series (a line or bar group in the original figure)."""

    label: str
    x: list
    y: list[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(f"series {self.label!r}: x and y lengths differ")

    @property
    def total(self) -> float:
        """Sum of the series values."""
        return float(sum(self.y))

    @property
    def maximum(self) -> float:
        """Largest value in the series."""
        return float(max(self.y)) if self.y else 0.0


@dataclass
class ExperimentResult:
    """The outcome of reproducing one figure."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    notes: dict[str, float | str] = field(default_factory=dict)

    def add_series(self, label: str, x: list, y: list[float]) -> Series:
        """Append a new series and return it."""
        series = Series(label=label, x=list(x), y=[float(value) for value in y])
        self.series.append(series)
        return series

    def series_by_label(self, label: str) -> Series:
        """Return the series with the given label.

        Raises:
            KeyError: if no series carries that label.
        """
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r} in {self.experiment_id}")

    def to_table(self, float_format: str = "{:.1f}") -> str:
        """Render the result as an aligned text table (x values as rows)."""
        if not self.series:
            return f"{self.experiment_id}: (no data)"
        header = [self.x_label] + [series.label for series in self.series]
        x_values = self.series[0].x
        rows = []
        for index, x_value in enumerate(x_values):
            row = [str(x_value)]
            for series in self.series:
                value = series.y[index] if index < len(series.y) else float("nan")
                row.append(float_format.format(value))
            rows.append(row)

        widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
        lines = [
            f"{self.experiment_id}: {self.title}",
            "  " + " | ".join(cell.ljust(width) for cell, width in zip(header, widths)),
            "  " + "-+-".join("-" * width for width in widths),
        ]
        for row in rows:
            lines.append("  " + " | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if self.notes:
            lines.append("  notes: " + ", ".join(f"{key}={value}" for key, value in self.notes.items()))
        return "\n".join(lines)

    def summary(self) -> dict[str, float]:
        """Per-series totals, useful for quick assertions in tests and benches."""
        return {series.label: series.total for series in self.series}


def parallelism_notes(results: list) -> dict[str, float]:
    """Makespan/straggler summary of a list of :class:`QueryResult` objects.

    Figure drivers attach this to their ``notes`` so every figure records how
    the task scheduler actually spread the work, not just the serial cost sum.
    """
    with_schedule = [r for r in results if r.makespan_cost_units > 0.0]
    if not with_schedule:
        return {}
    mean_straggler = sum(r.straggler_factor for r in with_schedule) / len(with_schedule)
    mean_speedup = sum(r.parallel_speedup for r in with_schedule) / len(with_schedule)
    return {
        "mean_straggler_factor": round(mean_straggler, 3),
        "mean_parallel_speedup": round(mean_speedup, 2),
        "total_makespan_cost": round(sum(r.makespan_cost_units for r in with_schedule), 1),
    }
