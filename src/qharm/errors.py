"""Exception types shared across the package."""


class PoleError(ValueError):
    """Evaluation requested within the configured epsilon of a pole."""


class CancellationError(ArithmeticError):
    """Alternating series abandoned because cancellation destroys accuracy."""


class ToleranceError(RuntimeError):
    """Requested tolerance unreachable within the configured term or step budget."""


class LatticeWindowError(ValueError):
    """Quotient lattice window too small for the requested computation."""


class WindowOverflowError(RuntimeError):
    """Scale out of reach: a power of q (crown weight, eigenvalue, ||x||), a
    convolution product or a mass window leaves the float range, or the
    extension a multiplier needs exceeds the cap."""


class QuadratureError(RuntimeError):
    """A quadrature rule leaves the normal floats or its node cap, or its
    a-priori error bound exceeds the tolerance."""
