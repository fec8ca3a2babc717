"""Experiment harness: regenerates every table and figure of the paper.

All four drivers (``generate_table1``, ``generate_table2``,
``generate_figures``, ``appendix_a``) compute in the caller's process
and read only the settle engine and FSM backend of a
:class:`~repro.api.SimConfig` (or :class:`~repro.api.Session`) passed
as ``config=``.  The workload
builders in :mod:`.scenarios` register with the canonical scenario
registry (:func:`repro.api.get_registry`).
"""

from .appendix_a import appendix_a
from .figures import (
    figure1,
    figure2_anvil,
    figure2_bsv,
    figure4,
    figure5,
    figure6,
    figure8,
    generate_figures,
)
from .table1 import Table1Row, format_table1, generate_table1
from .table2 import generate_table2, stream_fifo_safety

__all__ = [
    "appendix_a", "figure1", "figure2_anvil", "figure2_bsv", "figure4",
    "figure5", "figure6", "figure8", "generate_figures",
    "Table1Row", "format_table1",
    "generate_table1", "generate_table2", "stream_fifo_safety",
]
