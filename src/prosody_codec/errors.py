"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError/ContractError -> 2, NumericError -> 3.
"""


class ProsodyCodecError(Exception):
    """Base class for all package errors."""


class ConfigError(ProsodyCodecError):
    """Invalid configuration file or command usage."""


class DataError(ProsodyCodecError):
    """Malformed input data: manifests, wav files, caches, checkpoints."""


class ContractError(ProsodyCodecError):
    """A call violated an operation's precondition (shape/length mismatch...)."""


class NumericError(ProsodyCodecError):
    """Non-finite values where finite ones are required."""


# np.errstate for numeric work whose non-finite result raises a NumericError
NONFINITE_REPORTED = dict(over="ignore", invalid="ignore", divide="ignore")
