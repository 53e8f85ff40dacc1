"""Common result constructor for the per-figure/table experiments.

Every module in :mod:`repro.experiments` exposes a ``run(...)`` function that
returns an experiment-kind :class:`repro.api.Report`: the rows/series the
corresponding paper table or figure reports, a small summary dict with the
headline numbers, and the ``[id] title`` header its ``render()`` prints (used
by the CLI and captured by the benchmarks).  The executor adds only ``meta``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..api.report import Report, _freeze_rows, _freeze_series


def make_result(experiment_id: str, title: str,
                rows: Sequence[Mapping[str, object]] = (),
                series: Mapping[str, Sequence[Sequence[object]]] | None = None,
                summary: Mapping[str, object] | None = None) -> Report:
    """The experiment-kind report of one table or figure, containers frozen."""
    return Report(
        kind="experiment",
        title=title,
        report_id=experiment_id,
        rows=_freeze_rows(rows),
        series=_freeze_series(series),
        summary=dict(summary or {}),
    )
