"""Experiment harness: regenerates every table and figure of the paper.

All four drivers (``generate_table1``, ``generate_table2``,
``generate_figures``, ``appendix_a``) compute in the caller's process
and read only the settle engine and FSM backend of a
:class:`~repro.api.SimConfig` (or :class:`~repro.api.Session`) passed
as ``config=``.  The workload
builders in :mod:`.scenarios` register with the canonical scenario
registry (:func:`repro.api.get_registry`).

The drivers load on first use (PEP 562): the registry imports this
package for its scenarios, and a ``run`` or ``list-scenarios`` command
pays for none of them.
"""

import importlib
import sys
import types

#: each export and the submodule that defines it
_EXPORTS = {
    "appendix_a": "appendix_a",
    **dict.fromkeys(("figure1", "figure2_anvil", "figure2_bsv", "figure4",
                     "figure5", "figure6", "figure8", "generate_figures"),
                    "figures"),
    **dict.fromkeys(("Table1Row", "format_table1", "generate_table1"),
                    "table1"),
    **dict.fromkeys(("generate_table2", "stream_fifo_safety"), "table2"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing a submodule binds it on its package; the appendix_a
        # submodule shares its name with the driver this package
        # exports, which stays the package's attribute
        if name == "appendix_a" and isinstance(value, types.ModuleType):
            value = value.appendix_a
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
