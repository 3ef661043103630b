"""Result collection and report rendering."""

from .report import (EventAccounting, ExperimentResult, format_table,
                     histogram, speedup)

__all__ = ["EventAccounting", "ExperimentResult", "format_table",
           "histogram", "speedup"]
