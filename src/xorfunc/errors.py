"""Exception types shared across the package."""


class XorFuncError(Exception):
    """Base class for all library errors."""


class KTooLarge(XorFuncError):
    """Asked for more distinct values than the range holds (k > m)."""


class EmptySupport(XorFuncError):
    """The conditioned distribution has no mass at working precision."""


class DuplicateKeys(XorFuncError):
    """The input key set contains a repeated key."""


class RandomnessExhausted(XorFuncError):
    """Retry cap hit; density is above threshold or the input is adversarial."""


class DomainError(XorFuncError):
    """Numeric argument outside the operation's domain."""


class IndexOutOfRange(XorFuncError):
    """Index beyond the addressed table or bitvector."""


class ConvergenceFailure(XorFuncError):
    """Iterative search failed to bracket or converge."""


class ParseError(XorFuncError):
    """Input file could not be parsed."""


class ContainerError(XorFuncError):
    """Malformed serialized container."""


class BadMagic(ContainerError):
    """Container does not start with the expected magic bytes."""


class BadCrc(ContainerError):
    """Container checksum mismatch."""


class UnsupportedVersion(ContainerError):
    """Container version is not supported by this build."""
