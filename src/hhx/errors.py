"""Shared exception types, mapped onto CLI exit statuses, the default column
budget, the abridging of values and lists echoed in error messages, and the
JSON document reader that turns unparseable input into FormatError."""

import json


class FormatError(ValueError):
    """Malformed or unparseable input (bad JSON shape, unknown names). CLI exit 2."""


class ValidationError(ValueError):
    """Well-formed input that violates a semantic requirement. CLI exit 1."""


class BudgetError(RuntimeError):
    """A computation would exceed a resource limit. CLI exit 3."""


def _abridged(value) -> str:
    """repr(value), or past 40 characters its first 40 and its length, so an
    error message never echoes a whole huge input. An int past 40 digits is
    cut before it is converted, since the interpreter refuses to convert one
    of more than 4,300 digits."""
    size = abs(value) if isinstance(value, int) else 0
    if size.bit_length() > 133:  # size >= 2**133 > 10**40
        digits = size.bit_length() * 1233 >> 12  # at most its digit count
        while 10**digits <= size:
            digits += 1
        sign = "-" if value < 0 else ""
        text = sign + str(size // 10 ** (digits - 40))
        return f"{text[:40]}... ({len(sign) + digits} characters)"
    return _clipped(repr(value))


def _clipped(text: str) -> str:
    """text, or past 40 characters its first 40 and its length: _abridged for
    a name a message shows without quotes."""
    if len(text) <= 40:
        return text
    return f"{text[:40]}... ({len(text)} characters)"


def _listed(items, show) -> str:
    """show(item) for the first 10 items, joined by ", ", then "... and N
    more" for the rest, so a message names a bounded number of problems."""
    text = ", ".join(map(show, items[:10]))
    if len(items) > 10:
        text += f", ... and {len(items) - 10} more"
    return text


# hom-space columns a cohomology computation may build unless told otherwise;
# it lives here, beside ColumnBudgetError, so the CLI's --budget default
# reads it without loading the cochain engine
DEFAULT_BUDGET = 200_000


class ColumnBudgetError(BudgetError):
    """A hom-space exceeded the column budget."""

    def __init__(self, degree: int, dimension: int, budget: int):
        self.degree = degree
        self.dimension = dimension
        self.budget = budget
        super().__init__(
            f"hom-space in degree {degree} has dimension {_abridged(dimension)}, "
            f"exceeding the budget of {_abridged(budget)} columns"
        )


class InternalError(RuntimeError):
    """An invariant the engine relies on was violated; indicates a bug."""


def read_json(path: str):
    """The JSON document at path. Invalid JSON, bytes that are not UTF-8, an
    integer too long for the interpreter to read (over 4,300 digits) and
    nesting too deep for its recursion limit raise FormatError naming the
    file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        except RecursionError:
            raise FormatError(f"{path}: invalid JSON (nested too deeply)") from None
