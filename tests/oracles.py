"""Test oracles shared by several test modules: small exact formulas that
the library does not need, kept here to check what it computes."""

from fractions import Fraction

from density_lab import PeriodicPoints, SigmaFiniteChain
from density_lab.groups import _strip
from density_lab.sets import difference_residues_mod


def min_positive_difference(s: PeriodicPoints) -> Fraction:
    """Least positive element of the difference set of s: the least positive
    residue difference mod the period, or the period itself when there is
    none (a single residue)."""
    diffs = difference_residues_mod(s.residues, s.period)
    return min((d for d in diffs if d > 0), default=s.period)


def subgroup_elements(chain: SigmaFiniteChain, n: int):
    """Elements of the chain subgroup H_n in canonical (padded-lexicographic)
    order."""
    return [_strip(e) for e in chain.subgroup(n).elements()]
