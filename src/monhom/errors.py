"""Exception types shared across the package.

Grouped here so the CLI can map them to exit codes in one place.
"""


class MonhomError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MonhomError):
    """Bad input data (tables, module laws, JSON payloads, parameters)."""


class MonoidLawError(ValidationError):
    """One or more monoid laws fail.

    ``violations`` holds ``(law, witness)`` pairs, one witness per law,
    with law in {"NotCommutative", "NotAssociative", "BadIdentity"}.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        msg = "; ".join(f"{law} at {witness}" for law, witness in self.violations)
        super().__init__(msg)


class BadParams(ValidationError):
    """A builder or operation was called with out-of-range parameters."""


class ParseError(ValidationError):
    """Malformed JSON payload; the message names the offending field."""


class DegreeMismatch(MonhomError):
    """Matrix or map shapes do not line up."""


class CompositionNonzero(MonhomError):
    """Two supposedly consecutive boundary maps do not compose to zero."""


class NotAnnihilated(MonhomError):
    """Eulerian idempotents fail a spectral identity of the shuffle operator."""


class ComplexityBudget(MonhomError):
    """A requested complex exceeds the configured basis-size budget."""


class NotAComplex(MonhomError):
    """A sub- or quotient construction is not closed under the boundary."""


class OracleMismatch(MonhomError):
    """Two independent computation routes for the same group disagree."""


class WeightNotPreserved(MonhomError):
    """A boundary map fails to commute with a weight projector."""
