"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or invariant."""


class RefusalError(RuntimeError):
    """Raised when a solve is refused because its certified preconditions fail.

    Carries a ``diagnostic`` dict with the quantities that triggered the
    refusal (e.g. minimal admissible horizon, Gramian eigenvalue floor).
    """

    def __init__(self, message: str, diagnostic: dict | None = None):
        super().__init__(message)
        self.diagnostic = dict(diagnostic or {})

