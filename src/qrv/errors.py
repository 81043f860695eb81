"""Exception hierarchy for qrv."""


class QrvError(Exception):
    """Base class for all qrv errors."""


class ValidationError(QrvError, ValueError):
    """An object violates one of its structural invariants."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible Hilbert-space dimensions."""


class SchemaError(ValidationError):
    """A JSON document does not match the expected schema.

    Carries its ``message`` and the ``path`` of the offending element, e.g. ``states[3].data``.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.message, self.path = message, path


class MisclassifiedInput(QrvError, ValueError):
    """Robustness was requested for a state the classifier gets wrong.

    Robustness of a misclassified state is a correctness problem, not a
    robustness problem, so it is refused with this distinct error.
    """
