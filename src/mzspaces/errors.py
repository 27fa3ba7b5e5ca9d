"""Error taxonomy: DomainError marks rejected inputs (CLI exit 2).

Anything else that escapes is an internal error (CLI exit 1).
"""


class DomainError(ValueError):
    """A precondition on user-supplied data failed."""


class DependentFunctionalsError(DomainError):
    """Functional list is linearly dependent; carries one dependency relation."""

    def __init__(self, relation):
        self.relation = tuple(relation)
        pretty = ", ".join(str(c) for c in self.relation)
        super().__init__(
            f"functionals are linearly dependent: relation coefficients ({pretty})"
        )


class DoesNotSplitError(DomainError):
    """Polynomial has an irreducible factor of degree > 1 over the rationals."""

    def __init__(self, cofactor):
        self.cofactor = cofactor
        super().__init__(f"polynomial does not split over Q: non-linear factor {cofactor}")
