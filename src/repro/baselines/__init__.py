"""Baseline layout strategies the paper compares against.

* stripe-everything-everywhere (SEE) is :meth:`repro.core.Layout.see`,
  or :meth:`~repro.core.LayoutProblem.see_layout` for a problem;
* isolate-tables / isolate-tables-and-indexes heuristics (paper §6.4),
* everything-on-the-SSD (paper §6.4's second experiment),
* the AutoAdmin relational layout algorithm of Agrawal et al.
  (ICDE 2003), reimplemented as described in the paper's §6.6.
"""

from repro.baselines.heuristics import (
    isolate_tables_layout,
    isolate_tables_indexes_layout,
    all_on_target_layout,
)
from repro.baselines.autoadmin import AutoAdminAdvisor, autoadmin_layout

__all__ = [
    "isolate_tables_layout",
    "isolate_tables_indexes_layout",
    "all_on_target_layout",
    "AutoAdminAdvisor",
    "autoadmin_layout",
]
