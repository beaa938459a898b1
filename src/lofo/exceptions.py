"""Exception types shared across the package.

The split matters for scripting: mathematical precondition failures are
recoverable configuration errors; parse, capacity and numerical failures
are operational ones, and the CLI maps them to distinct exit codes.
"""


class PreconditionError(ValueError):
    """A mathematical precondition of the requested computation fails."""


class ParseError(ValueError):
    """An input file is malformed: empty, unknown type, or missing fields."""


class NumericalError(RuntimeError):
    """A numerical method failed to bracket, converge or meet its tolerance."""


class CapacityError(RuntimeError):
    """An exact computation would exceed its support-size budget."""

    def __init__(self, attained: int, budget: int):
        self.attained = attained
        self.budget = budget
        super().__init__(
            f"support size {attained} exceeds budget {budget}; "
            "raise the budget or switch to Monte Carlo"
        )


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to converge; carries the best estimate."""

    def __init__(self, estimate: float, tol: float, depth: int):
        self.estimate = estimate
        self.tol = tol
        self.depth = depth
        super().__init__(
            f"quadrature did not reach tolerance {tol:g} within depth {depth}; "
            f"achieved estimate {estimate!r}"
        )
