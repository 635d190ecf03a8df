"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input is outside the supported domain (size caps, unsupported d, ...)."""


class RegimeError(ValueError):
    """Parameters belong to the other protocol regime (wrong alpha range)."""


class PrecisionGuardError(DomainError):
    """Chain too deep for its spectrum and dense exact transfer: an absolute
    eigensolver error would not stay 1000x below the smallest physical gap.

    Carries ``max_admissible_l``, the largest even depth that passes.
    """

    def __init__(self, message: str, max_admissible_l: int):
        super().__init__(message)
        self.max_admissible_l = max_admissible_l
