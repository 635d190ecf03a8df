"""Exception types shared across the package (exit 2 on RegimeError, 3 on DomainError)."""


class DomainError(ValueError):
    """Input is outside the supported domain (size caps, unsupported d, ...)."""


class RegimeError(ValueError):
    """Parameters belong to the other protocol regime (wrong alpha range)."""


class PrecisionGuardError(DomainError):
    """Chain too deep for the dense exact transfer (its eigensolver's absolute error would not
    stay 1000x below the smallest gap); raised by the guard in ``transfer`` alone, its message
    names the largest even depth that passes (``transfer.max_admissible_l``)."""
