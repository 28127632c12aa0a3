"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` ("module.kind") so the
CLI can exit with a tagged message without matching on class names.
"""


class HefitError(Exception):
    """Base class for all package errors."""

    code = "hefit.error"


class DepthExhausted(HefitError):
    """A multiplicative op was attempted on a ciphertext at level 0."""

    code = "emulator.depth"


class LevelError(HefitError, ValueError):
    """A level outside the context's budget, or not an integer.

    Also a ``ValueError``, the type a bad level raised before it was typed.
    """

    code = "emulator.level"


class SlotCountMismatch(HefitError):
    """Operands packed for different slot widths were combined."""

    code = "emulator.slots"


class ShapeMismatch(HefitError):
    """Matrix operands have incompatible logical shapes or layouts."""

    code = "encoding.shape"


class TilingError(HefitError):
    """A matrix does not fit the requested tiling (period too large, etc.)."""

    code = "encoding.tiling"


class ResidualImaginary(HefitError):
    """Decoding found imaginary residue above tolerance in the logical region."""

    code = "encoding.imaginary"


class ConfigError(HefitError):
    """A run configuration failed validation."""

    code = "cli.config"


class DataError(HefitError):
    """A dataset file was malformed or inconsistent with the configuration."""

    code = "cli.data"


class ProtocolError(HefitError):
    """A channel message could not be parsed or arrived out of order."""

    code = "protocol.message"
