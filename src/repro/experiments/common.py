"""Shared infrastructure for experiment runners."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.utils.records import ResultTable, SeriesRecord

__all__ = ["Scale", "ExperimentResult", "scale_parameters"]


class Scale(str, enum.Enum):
    """Size presets for experiment runs."""

    SMOKE = "smoke"
    DEFAULT = "default"
    PAPER = "paper"


@dataclass
class ExperimentResult:
    """Uniform result container produced by every experiment runner.

    Attributes
    ----------
    experiment_id:
        Registry id, e.g. ``"fig3"``.
    title:
        Human-readable title matching the paper's figure caption.
    tables:
        Result tables (rows the paper's figure/table reports).
    series:
        Labelled series (curves of the paper's figure).
    metadata:
        Run parameters: scale, seed, populations, horizons, ...
    """

    experiment_id: str
    title: str
    tables: List[ResultTable] = field(default_factory=list)
    series: List[SeriesRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def table(self, title_fragment: Optional[str] = None) -> ResultTable:
        """Return the first table (or the first whose title contains the fragment)."""
        if not self.tables:
            raise ValueError(f"experiment {self.experiment_id} produced no tables")
        if title_fragment is None:
            return self.tables[0]
        for table in self.tables:
            if title_fragment.lower() in table.title.lower():
                return table
        raise KeyError(f"no table with {title_fragment!r} in its title")

    def series_by_label(self, label: str) -> SeriesRecord:
        """Return the series whose label matches exactly."""
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r}")

    def format(self) -> str:
        """Plain-text rendering of every table (what `repro run` prints)."""
        parts = [f"== {self.title} =="]
        for table in self.tables:
            parts.append(table.format())
        if self.series and not self.tables:
            for series in self.series:
                parts.append(f"{series.label}: final={series.final_value():.4g}")
        return "\n\n".join(parts)


def scale_parameters(scale: Scale | str, smoke: dict, default: dict, paper: dict) -> dict:
    """Pick the parameter dictionary matching ``scale``."""
    scale = Scale(scale)
    if scale is Scale.SMOKE:
        return dict(smoke)
    if scale is Scale.PAPER:
        return dict(paper)
    return dict(default)
