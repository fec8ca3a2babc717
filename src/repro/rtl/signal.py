"""Wires: the signals connecting RTL modules.

A :class:`Wire` carries an integer masked to its width.  Wires are *stateless*
-- their values are re-derived during the combinational settling phase of
every cycle -- which is exactly the property whose misuse the Anvil paper
calls a timing hazard.
"""

from __future__ import annotations

from typing import Optional


class Wire:
    """A named signal with a width and a current value."""

    __slots__ = ("name", "width", "mask", "value", "driver")

    def __init__(self, name: str, width: int = 1, value: int = 0):
        self.name = name
        self.width = width
        # cached once: Wire.set is the hottest call in the simulator
        self.mask = (1 << width) - 1
        self.value = value & self.mask
        self.driver: Optional[str] = None

    def set(self, value: int):
        self.value = value & self.mask

    def __repr__(self):
        return f"Wire({self.name}={self.value:#x}/{self.width}b)"

