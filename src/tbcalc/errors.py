"""Exception hierarchy for tbcalc.

Two families matter to callers. UserInputError covers everything a caller
can trigger with bad data (the command line maps it to exit code 1).
InternalInvariantError covers conditions that cannot arise from bad input;
if one fires, the pipeline itself is broken (exit code 2).
"""


class TbcalcError(Exception):
    """Base class for every error raised by this package."""


class UserInputError(TbcalcError):
    """Invalid input supplied by the caller."""


class InternalInvariantError(TbcalcError):
    """A pipeline invariant failed; this signals a bug, not bad input."""


class BadExponents(UserInputError):
    """Exponents outside the admissible family: need m, n >= 2 and gcd(m, n) = 1."""


class NonPositiveM(UserInputError):
    """A contraction parameter m must be a positive rational."""


class MalformedDecomposition(UserInputError):
    """A pinched-surface decomposition document violates its invariants."""


class InvalidDocument(UserInputError):
    """A serialized graph document cannot be parsed back into a graph."""


class InconsistentAnnotation(UserInputError):
    """Real/imaginary flags, conjugation data or a supplied characteristic
    set contradict each other."""


class IsolatedMinusOne(UserInputError):
    """Blowing down reached an isolated (-1)-vertex; the graph would
    contract to a smooth point."""


class ZeroDenominator(UserInputError):
    """A continued fraction tail evaluated to zero."""


class SingularMatrix(UserInputError):
    """The intersection form is singular over the rationals, or not
    negative definite, so the graph is not the resolution of a rational
    homology sphere singularity."""


class NonIntegralCanonicalClass(UserInputError):
    """A caller-supplied graph's adjunction system has no integral
    solution: the graph is not numerically Gorenstein."""


class NonIntegralMultiplicity(UserInputError):
    """The balance identity has no integer multiplicity solution; the
    input graph is not an embedded resolution graph."""


class StructureMismatch(InternalInvariantError):
    """The lifted or minimized graph violates one of the structural facts
    that hold for every graph in the family."""


class OddSelfIntOnBranch(InternalInvariantError):
    """An odd-multiplicity curve carries an odd self-intersection, so its
    lift to the double cover is undefined."""


class BadOddNeighborCount(InternalInvariantError):
    """An even-multiplicity curve meets an odd number of odd-multiplicity
    branches, contradicting the balance identity mod 2."""


class NotNumericallyGorenstein(InternalInvariantError):
    """The adjunction system has a non-integral solution; the canonical
    class of the resolved surface is not integral. tb_from_graph reports
    this for a caller's graph as NonIntegralCanonicalClass."""
