"""Waveform capture and ASCII rendering (for the paper's figures)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Waveform:
    """Samples watched wires once per cycle (after combinational settle)."""

    def __init__(self):
        # (label, wire, series): the series list is cached at watch time
        # so the per-cycle sample loop does no dict lookups
        self._watched: List[Tuple[str, object, List[int]]] = []
        self.samples: Dict[str, List[int]] = {}

    def watch(self, wire, label: str = ""):
        label = label or wire.name
        if label in self.samples:
            for existing_label, existing_wire, _series in self._watched:
                if existing_label == label and existing_wire is wire:
                    return       # the same signal twice: one series
            raise ValueError(
                f"waveform label {label!r} is already watching a "
                f"different wire; samples are keyed by label, so two "
                f"signals cannot share one (pass an explicit label=)"
            )
        series = self.samples.setdefault(label, [])
        self._watched.append((label, wire, series))

    def sample(self, cycle: int):
        for _label, wire, series in self._watched:
            if len(series) < cycle:
                series.extend([0] * (cycle - len(series)))
            series.append(wire.value)

    def series(self, label: str) -> List[int]:
        return self.samples[label]

    def render(self, first: int = 0, last: Optional[int] = None) -> str:
        """ASCII waveform: one row per watched signal.

        Single-bit signals draw as ``_``/``#`` levels; multi-bit signals
        print their hexadecimal value per cycle.
        """
        if not self._watched:
            return "(no signals watched)"
        some = next(iter(self.samples.values()))
        last = len(some) if last is None else min(last, len(some))
        if last <= first:
            # watched but never sampled (or an empty window): nothing
            # to draw -- the seed crashed here on max() of no cells
            return "(no samples)"
        width = max(len(lbl) for lbl, _w, _s in self._watched) + 2
        cells = max(
            3,
            max(
                len(f"{v:x}")
                for series in self.samples.values()
                for v in series[first:last]
            ) + 1,
        )
        header = " " * width + "".join(
            f"{c:<{cells}}" for c in range(first, last)
        )
        lines = [header]
        for label, wire, _series in self._watched:
            series = self.samples[label][first:last]
            if wire.width == 1:
                body = "".join(
                    ("#" * cells if v else "_" * cells) for v in series
                )
            else:
                body = "".join(f"{v:<{cells}x}" for v in series)
            lines.append(f"{label:<{width}}{body}")
        return "\n".join(lines)
