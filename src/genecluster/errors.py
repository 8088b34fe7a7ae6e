"""Exception hierarchy and the rules shared across the package: the id
rule, the setting-type rule and the array rule."""

import numpy as np


class GeneClusterError(Exception):
    """Base class for errors raised by this package."""


class ParseError(GeneClusterError):
    """Malformed input text (ragged rows, non-numeric fields, missing header)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(GeneClusterError):
    """Structurally valid input that violates a domain invariant."""


class EmptyMatrixError(ValidationError):
    """An operation removed every gene, leaving nothing to work with."""


class ConfigError(GeneClusterError):
    """Invalid run configuration (bad flag combination, out-of-range value)."""


class PipelineError(GeneClusterError):
    """A pipeline stage failed; carries the stage name and the original cause."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def bad_id(labels, kind):
    r"""Position and message of the first id that repeats an earlier one or
    holds "\r" (a csv writer leaves "\r" unquoted, so no file keeps it), or
    None when every id is fine."""
    try:
        if len(set(labels)) == len(labels) and "\r" not in "".join(labels):
            return None
    except TypeError:  # an id that is not a str
        pass
    seen = set()
    for i, lab in enumerate(labels):
        if lab in seen:
            return i, f"duplicate {kind} id: {lab!r}"
        if "\r" in str(lab):
            return i, f"{kind} id holds a carriage return: {lab!r}"
        seen.add(lab)


def wrong_type(value, kinds):
    """True unless value is one of kinds; a bool fits only bool (True is no count)."""
    return not isinstance(value, kinds) or isinstance(value, bool) != (kinds is bool)


def frozen_array(values, dtype, field):
    """A new read-only array of values as dtype (None lets numpy choose); a
    value numpy cannot convert, such as a ragged row or text, is a
    ValidationError that names field."""
    try:
        arr = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"bad {field!r}: {err}") from err
    arr.setflags(write=False)
    return arr
