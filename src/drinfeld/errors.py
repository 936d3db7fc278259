"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class CapExceeded(RuntimeError):
    """A computation would exceed a configured size cap and was refused."""


class ValidationError(DomainError):
    """A homomorphism or automorphism description failed a consistency rule.

    The ``rule`` attribute names the first rule that failed, so callers can
    report which part of the input data is inconsistent.
    """

    def __init__(self, rule: str, message: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule
