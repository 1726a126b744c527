"""Shared exception types, mapped onto CLI exit statuses, the default column
budget, and the JSON document reader that turns unparseable input into
FormatError."""

import json


class FormatError(ValueError):
    """Malformed or unparseable input (bad JSON shape, unknown names). CLI exit 2."""


class ValidationError(ValueError):
    """Well-formed input that violates a semantic requirement. CLI exit 1."""


class BudgetError(RuntimeError):
    """A computation would exceed a resource limit. CLI exit 3."""


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
            f"hom-space in degree {degree} has dimension {dimension}, "
            f"exceeding the budget of {budget} columns"
        )


class InternalError(RuntimeError):
    """An invariant the engine relies on was violated; indicates a bug."""


def read_json(path: str):
    """The JSON document at path. Invalid JSON, bytes that are not UTF-8 and
    an integer too long for the interpreter to read (over 4,300 digits)
    raise FormatError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
