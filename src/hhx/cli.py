"""Command-line front end: validate spaces, analyze actions, compute cohomology.

Exit statuses: 0 success, 1 semantic validation failure, 2 parse/IO error,
3 resource budget exceeded. Output is deterministic: identical inputs give
byte-identical reports.

Each command imports only what it runs: `validate` the simplicial layer,
`actions` also the action closures, `actions --emit-template` also the
algebras and modules (coeffalg, exactlinalg), and `cohomology` also the
cochain engine. No command imports hhx.extras.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys

from .errors import DEFAULT_BUDGET, BudgetError, FormatError, ValidationError, _abridged
from .simplicial import builtin_space, load_space, validate_space

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


def load_algebra(path: str, *, field=None):
    """coeffalg.load_algebra, importing coeffalg on the first call.

    The commands call the loaders bound in this module, so perfbench's
    tracer can replace them here by name.
    """
    from . import coeffalg

    return coeffalg.load_algebra(path, field=field)


def load_module(path: str, algebra, partition):
    """coeffalg.load_module, importing coeffalg on the first call."""
    from . import coeffalg

    return coeffalg.load_module(path, algebra, partition)


def _int(text: str) -> int:
    """int(text) for an integer option spelled -?[0-9]+ in ASCII digits, as
    scalars and --field are; int() alone would also take other scripts'
    digits, spaces and underscores. A refused text is echoed abridged: with
    type=int argparse would repeat all of it."""
    try:
        if re.fullmatch(r"-?[0-9]+", text):
            return int(text)
    except ValueError:  # past the interpreter's digit limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {_abridged(text)}")


def _add_space_args(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--space", metavar="PATH", help="space document (JSON)")
    group.add_argument(
        "--builtin",
        metavar="NAME",
        help="built-in space: circle, sphere<n>, torus, pinched-torus",
    )


def _add_format_arg(parser):
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhx",
        description=(
            "Determine admissible coefficient structure for a pointed "
            "simplicial set and compute its higher-order Hochschild "
            "cohomology by exact linear algebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check the simplicial identities")
    _add_space_args(p_val)
    _add_format_arg(p_val)

    p_act = sub.add_parser("actions", help="action slots and their classes")
    _add_space_args(p_act)
    p_act.add_argument(
        "--paranoid",
        type=_int,
        metavar="CAP",
        help="also scan all simplices (degenerate included) up to this dimension",
    )
    p_act.add_argument(
        "--emit-template",
        metavar="PATH",
        help="write a module file keyed by the computed class ids "
        "(requires --algebra; actions are plain multiplication)",
    )
    p_act.add_argument("--algebra", metavar="PATH", help="algebra document (JSON)")
    p_act.add_argument("--field", metavar="SPEC", help="override the algebra field (Q or F<p>)")
    _add_format_arg(p_act)

    p_coh = sub.add_parser("cohomology", help="cohomology dimensions HH^0..HH^N")
    _add_space_args(p_coh)
    p_coh.add_argument("--algebra", metavar="PATH", required=True)
    p_coh.add_argument("--module", metavar="PATH", required=True)
    p_coh.add_argument(
        "-N", "--max-degree", type=_int, default=3, dest="max_degree",
        help="top cohomological degree (default 3)",
    )
    p_coh.add_argument("--field", metavar="SPEC", help="override the algebra field (Q or F<p>)")
    p_coh.add_argument(
        "--budget", type=_int, default=DEFAULT_BUDGET,
        help="hom-space column budget (default %(default)s)",
    )
    p_coh.add_argument(
        "--override-slots", action="store_true",
        help="test mode: module actions keyed by slot ids instead of class ids",
    )
    _add_format_arg(p_coh)
    return parser


def _load_space(args, *, validate=True):
    if args.builtin:
        return builtin_space(args.builtin)
    return load_space(args.space, validate=validate)


def _emit(payload: dict, fmt: str, lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_validate(args) -> int:
    space = _load_space(args, validate=False)
    violations = validate_space(space)
    payload = {
        "space": space.name,
        "status": "pass" if not violations else "fail",
        "violations": [
            {"generator": g, "i": i, "j": j} for g, i, j in violations
        ],
    }
    lines = [f"space: {space.name}"]
    if violations:
        lines.append("simplicial identity violations:")
        lines.extend(
            f"  generator {g}: d{i} d{j} != d{j - 1} d{i}" for g, i, j in violations
        )
    else:
        lines.append("simplicial identities: pass")
    _emit(payload, args.format, lines)
    return EXIT_OK if not violations else EXIT_VALIDATION


def cmd_actions(args) -> int:
    # read from hhx.actions on each call, so a patched closure is what runs
    from .actions import paranoid_closure, sweep_closure

    space = _load_space(args)
    if args.emit_template:
        # argument errors come before the closures, which may take seconds
        if not args.algebra:
            raise FormatError("--emit-template requires --algebra")
        folder = os.path.dirname(args.emit_template) or "."
        if not os.path.isdir(folder):
            raise FormatError(f"--emit-template: no directory {folder}")
        if os.path.isdir(args.emit_template):
            raise FormatError(f"--emit-template: {args.emit_template} is a directory")
        from .coeffalg import multiplication_module
        from .exactlinalg import field_from_text

        field = field_from_text(args.field) if args.field else None
        algebra = load_algebra(args.algebra, field=field)
    elif args.algebra is not None or args.field is not None:
        raise FormatError("--algebra and --field require --emit-template")
    partition = sweep_closure(space)
    payload = partition.to_report()
    lines = [f"space: {space.name}", f"slots ({len(partition.slots)}):"]
    lines.extend(f"  {slot.describe()}" for slot in partition.slots)
    lines.append(f"classes ({partition.class_count}):")
    for cls in partition.classes:
        members = ", ".join(s.describe() for s in cls)
        lines.append(f"  {cls[0].id}: {members}")
    lines.append(f"coefficient kind: {partition.coefficient_kind()}")
    if args.paranoid is not None:
        paranoid = paranoid_closure(space, args.paranoid)
        agrees = paranoid.same_classes(partition)
        payload["paranoid"] = {
            "cap": args.paranoid,
            "class_count": paranoid.class_count,
            "agrees": agrees,
        }
        lines.append(
            f"paranoid scan to dimension {args.paranoid}: "
            f"{paranoid.class_count} classes, "
            + ("agrees with the generator scan" if agrees else "DISAGREES")
        )
    if args.emit_template:
        module = multiplication_module(
            algebra, {cid: None for cid in partition.class_ids}
        )
        doc = {
            "dim": module.dim,
            "actions": {
                cid: [
                    [[algebra.field.to_json(mat.get(r, c)) for c in range(module.dim)]
                     for r in range(module.dim)]
                    for mat in module.actions[cid]
                ]
                for cid in partition.class_ids
            },
        }
        with open(args.emit_template, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        lines.append(f"module template written to {args.emit_template}")
        payload["template"] = args.emit_template
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    from .actions import ActionPartition, enumerate_slots, sweep_closure
    from .cochain import CochainSetup
    from .exactlinalg import field_from_text

    if args.max_degree < 1:
        raise FormatError("--max-degree must be at least 1")
    if args.budget < 1:
        raise FormatError(f"--budget must be at least 1, got {args.budget}")
    space = _load_space(args)
    if args.override_slots:
        # every slot its own class: one action per slot
        partition = ActionPartition(enumerate_slots(space), ())
    else:
        partition = sweep_closure(space)
    field = field_from_text(args.field) if args.field else None
    algebra = load_algebra(args.algebra, field=field)
    module = load_module(args.module, algebra, partition)
    setup = CochainSetup(
        space, algebra, module, partition, args.max_degree, budget=args.budget
    )
    report = setup.report()
    lines = [
        f"space: {space.name}",
        f"algebra: dim {algebra.dim} over {algebra.field.name}; "
        f"module: dim {module.dim}",
        "t:        " + " ".join(str(t) for t in report["t"]),
        "hom dims: " + " ".join(str(h) for h in report["hom_dims"]),
    ]
    failed = report["identities"] != "pass"
    if failed:
        lines.append("cosimplicial identities: FAIL")
        lines.extend(
            f"  relation {f['relation']}) fails at n={f['n']}, i={f['i']}, j={f['j']}"
            for f in report["identities"]
        )
    else:
        lines.append("cosimplicial identities: pass")
        dims = report["hh_dims"]
        lines.append(
            "HH: " + "  ".join(f"HH^{n}={dim}" for n, dim in enumerate(dims))
        )
    _emit(report, args.format, lines)
    return EXIT_VALIDATION if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "actions": cmd_actions,
        "cohomology": cmd_cohomology,
    }
    try:
        return handlers[args.command](args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        # FormatError, and bad argument values such as a paranoid cap below
        # the space dimension
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> int:
    """main() on the process's own arguments: what `python -m hhx`,
    `python -m hhx.cli` and the installed `hhx` script call.

    The heap is frozen on the way out, so the full collections the
    interpreter runs while it shuts down skip every object the run made
    (about 6 ms a process); output is still flushed and atexit handlers
    still run. Code that calls main() many times in one process calls it
    directly, and its parsers' reference cycles are collected as usual.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
