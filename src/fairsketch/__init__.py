"""Socially fair low-rank approximation, column subset selection, and
min-max regression via randomized sketching.

Exports the README quick start's names; import the rest from their modules.
"""

from .grouped import GroupedLabels, GroupedMatrix, fair_lra_cost
from .lra import BicriteriaConfig, bicriteria_fair_lra, svd_baseline
from .regression import export_l1_feasibility, export_l2_feasibility, minmax_subgradient

__version__ = "0.1.0"
