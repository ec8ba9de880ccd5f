"""Exception hierarchy for the XRefine reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers embedding the library can catch a single base class.  Subsystem
errors add context that is useful for debugging (byte offsets for parse
errors, key material for storage errors, and so on).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class XMLError(ReproError):
    """Base class for XML tokenizer / parser / tree errors."""


class XMLSyntaxError(XMLError):
    """The input document is not well formed.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    line, column:
        1-based position of the offending character, when known.
    """

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        if line is not None:
            super().__init__(f"{message} (line {line}, column {column})")
        else:
            super().__init__(message)


class DeweyError(ReproError):
    """An invalid Dewey label string or component was supplied."""


class StorageError(ReproError):
    """Base class for the key-value store and its byte codecs."""


class KeyEncodingError(StorageError):
    """A key or value could not be encoded/decoded for storage."""


class IndexError_(ReproError):
    """Base class for index construction and lookup errors.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`; exported as ``IndexingError`` from the package
    root.
    """


class IndexingError(IndexError_):
    """The index is missing, stale or inconsistent with the document."""


class QueryError(ReproError):
    """An invalid keyword query was supplied (e.g. empty)."""


class RuleError(ReproError):
    """A malformed refinement rule was supplied."""


class RefinementError(ReproError):
    """A refinement algorithm was invoked with inconsistent inputs."""


class ServeError(ReproError):
    """Base class for the always-on serving daemon (:mod:`repro.serve`)."""


class ServerOverloadedError(ServeError):
    """Admission control rejected a request: the daemon is at capacity.

    Mapped to HTTP 429 by the serving layer.  Carries ``retry_after``
    (seconds, advisory) so well-behaved clients can back off.
    """

    def __init__(self, message, retry_after=0.05):
        super().__init__(message)
        self.retry_after = retry_after


class DatasetError(ReproError):
    """A synthetic dataset generator was misconfigured."""


class EvaluationError(ReproError):
    """An effectiveness/efficiency evaluation harness was misused."""
