"""Exception types shared across the toolkit.

Two families matter to callers: ``InputDataError`` covers malformed or
inconsistent external inputs (files, configuration) and maps to CLI exit
code 2; every other ``ToolkitError`` signals a violated invariant inside a
computation and maps to exit code 1.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class InputDataError(ToolkitError):
    """Bad or inconsistent external input (files, configuration)."""


class MalformedInput(InputDataError):
    """A file does not follow its documented schema or encoding."""


class DuplicateAnnotationId(InputDataError):
    """Two caption annotations share the same annotation id."""


class SizeMismatch(InputDataError):
    """Requested split sizes do not sum to the number of ids."""


class MissingReferences(InputDataError):
    """An image to be scored has no reference captions (or no bin)."""


class DimensionMismatch(ToolkitError):
    """Vectors or matrices with incompatible dimensions were combined."""


class ZeroVector(ToolkitError):
    """A zero vector was used where a direction is required."""


class EmptyIndex(ToolkitError):
    """A similarity query was issued against an empty index."""


class NoCaptions(ToolkitError):
    """The retrieved image has no captions to emit."""


class EmptyPool(ToolkitError):
    """Consensus selection was asked to choose from an empty caption pool."""


class EmptyReferences(ToolkitError):
    """A metric was called with an empty reference list."""


class EmptyHypothesis(ToolkitError):
    """A corpus-level score was requested for zero hypothesis tokens."""


class NonFiniteLogProb(ToolkitError):
    """A language model produced a non-finite log-probability."""


class NonFiniteLoss(ToolkitError):
    """Training produced a non-finite loss value."""


class DegenerateCorpus(ToolkitError):
    """A training corpus contains no usable examples."""


class SchemaMismatch(InputDataError):
    """An n-best list lacks a feature column the caller asked for."""


class EmptyNBest(ToolkitError):
    """An n-best list with no hypotheses was passed to the reranker."""
