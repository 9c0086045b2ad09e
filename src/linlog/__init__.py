"""Sequent proofs for intuitionistic linear logic, cut elimination, and
an exact symbolic vector-space denotation engine."""

__version__ = "0.1.0"


class SemanticsError(Exception):
    """A denotation that cannot be evaluated.  ``linlog.semantics`` raises
    it (and exports it); it is defined here so that the CLI catches it
    without importing the evaluator, which only ``denote``, ``nl`` and
    ``tangent`` need."""
