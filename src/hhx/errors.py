"""Shared exception types, mapped onto CLI exit statuses, and the JSON
document reader that turns unparseable input into FormatError."""

import json


class FormatError(ValueError):
    """Malformed or unparseable input (bad JSON shape, unknown names). CLI exit 2."""


class ValidationError(ValueError):
    """Well-formed input that violates a semantic requirement. CLI exit 1."""


class BudgetError(RuntimeError):
    """A computation would exceed a resource limit. CLI exit 3."""


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
    """The JSON document at path; invalid JSON raises FormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
