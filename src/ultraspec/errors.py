"""Exception types shared across the package."""


class UltraspecError(Exception):
    """Base class for all package-specific errors."""


class NonPrimeP(UltraspecError):
    """The declared prime p is not prime."""


class WildRamification(UltraspecError):
    """Eisenstein extension with p | e; only tame ramification is supported."""


class ReducibleModulus(UltraspecError):
    """Residue-field modulus is not irreducible over the prime field."""


class GridTooLarge(UltraspecError):
    """q**(2n) exceeds the configured grid cap or the int64 index range 2**63 - 1."""


class NoConvergence(UltraspecError):
    """The eigensolver did not converge."""


class ResidualTooLarge(UltraspecError):
    """An eigenpair residual exceeded its tolerance."""


class ConfigError(UltraspecError):
    """Base class for configuration problems (maps to exit code 1)."""


class ParseError(ConfigError):
    """Config file is not syntactically valid; carries line information."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ConfigError):
    """Config file is well-formed but a field is missing or invalid."""

    def __init__(self, field, message=""):
        text = f"invalid config field '{field}'"
        if message:
            text += f": {message}"
        super().__init__(text)
        self.field = field


class NonConfiningPotentialWarning(UserWarning):
    """Potential does not grow at large radius; convergence hypotheses fail."""
