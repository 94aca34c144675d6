"""Command-line frontend.

Every subcommand reads poset/group/grading inputs, runs one library
operation, and emits a run report either as deterministic JSON (stable
key order, canonical rational strings, no timing) or as a human-readable
table with wall-clock timing. Each subcommand is declared once, in
COMMANDS. Its inputs are read in one place, _read_inputs, which turns
every flag that the command's row names into a value and checks the
degree cap; a handler takes those values and only computes.

Exit codes: 0 success, 1 a verification subcommand found a counterexample
or a cross-check failed, 2 input or usage error or a report that cannot
be written.

argparse reads the command line against COMMANDS and FLAGS: a flag may
be abbreviated to any unambiguous prefix and take its value as the next
argument or after "=", the last of a repeated flag wins, and a usage
error is one "incgrade: error:" line. A command line in the plain form
(the command, then full flag names, each value flag followed by a value
that does not start with "-") is read without importing argparse, which
would read it the same way.
"""

import json
import os
import sys
import time
from types import SimpleNamespace

from . import __version__
from .corpus import FIXTURE_NAMES, format_rational, load_poset, read_json
from .errors import (
    CapExceededError,
    IncgradeError,
    ResultTooLongError,
    VerificationError,
)
from .grading import (
    GradingMap,
    classify_gradings,
    count_distinct_gradings,
    equivalent,
    group_from_spec,
)
from .poset import (
    automorphisms,
    bound,
    connected_components,
    is_chain_transitive,
    maximal_chains,
    poset_to_json,
)

# The algebra and identity layers, and random for a theta drawn from
# --seed, are imported where used. No command loads fractions or decimal.

# A slice of multidegree length m has m! columns, so commands refuse a
# longer multidegree or a higher --max-degree. The library has no cap.
DEGREE_CAP = 4


class CounterexampleFound(Exception):
    """Raised by handlers whose verification failed; maps to exit 1."""


def _labels(poset, indices):
    return [poset.elements[i] for i in indices]


def cmd_validate(inputs):
    return {"valid": True, **poset_to_json(inputs.poset),
            "components": len(connected_components(inputs.poset))}


def cmd_chains(inputs):
    poset = inputs.poset
    return {"chains": [_labels(poset, c) for c in maximal_chains(poset)]}


def cmd_components(inputs):
    return {"components": [_labels(inputs.poset, c)
                           for c in connected_components(inputs.poset)]}


def cmd_bound(inputs):
    return {"bound": bound(inputs.poset)}


def cmd_aut(inputs):
    auts = automorphisms(inputs.poset)
    return {"order": len(auts), "automorphisms": [list(a) for a in auts]}


def cmd_chain_transitive(inputs):
    transitive, witness = is_chain_transitive(inputs.poset)
    if transitive:
        table = [{"from": i, "to": j, "sigma": list(sigma)}
                 for (i, j), sigma in sorted(witness.items())]
        return {"transitive": True, "witnesses": table}
    return {"transitive": False, "unreachable": list(witness)}


def cmd_mobius(inputs):
    from .algebra import function_to_json, invert, zeta

    mobius = invert(zeta(inputs.poset))
    return {"entries": function_to_json(mobius)["entries"]}


def cmd_decompose(inputs):
    from .algebra import decompose_automorphism, function_to_json

    r, s, sigma = decompose_automorphism(inputs.morphism)
    return {
        "r": function_to_json(r)["entries"],
        "s": function_to_json(s)["entries"],
        "sigma": list(sigma),
    }


def cmd_grade(inputs):
    theta, group = inputs.theta, inputs.group
    components = {}
    for g, pairs in theta.components().items():
        components[group.names[g]] = [list(p) for p in pairs]
    return {
        "support": [group.names[g] for g in theta.support()],
        "components": components,
    }


def cmd_count(inputs):
    count = count_distinct_gradings(inputs.poset, inputs.group,
                                    verify=inputs.verify)
    return {"count": count, "verified": bool(inputs.verify)}


def cmd_classify(inputs):
    reps = classify_gradings(inputs.poset, inputs.group)
    return {
        "classes": len(reps),
        "representatives": [rep.names() for rep in reps],
    }


def cmd_equiv(inputs):
    witness = equivalent(inputs.theta, inputs.mu)
    if witness is None:
        return {"equivalent": False, "witness": None}
    return {
        "equivalent": True,
        "witness": {
            "shifts": [inputs.group.names[h] for h in witness.shifts],
            "sigma": list(witness.sigma),
        },
    }


def cmd_slice(inputs):
    from .identities import identity_slice

    basis = identity_slice(inputs.theta, inputs.multidegree)
    leads = [next(v for v in row if v) for row in basis.rows]
    return {
        "multidegree": [inputs.group.names[g] for g in inputs.multidegree],
        "dimension": basis.nrows,
        "basis": [[format_rational(v, lead) for v in row]
                  for row, lead in zip(basis.rows, leads)],
    }


def cmd_compare_identities(inputs):
    from .identities import slices_equal_upto

    equal, first = slices_equal_upto(inputs.theta, inputs.mu,
                                     inputs.max_degree)
    return {
        "equal": equal,
        "max_degree": inputs.max_degree,
        "first_difference": None if first is None
        else [inputs.group.names[g] for g in first],
    }


def cmd_verify_reduction(inputs):
    from .identities import verify_chain_reduction, words

    theta, names = inputs.theta, inputs.group.names
    if inputs.multidegree is not None:
        degrees = [inputs.multidegree]
    else:
        degrees = words(theta.support(), inputs.max_degree)
    checks = []
    all_equal = True
    for multidegree in degrees:
        equal, report = verify_chain_reduction(theta, multidegree)
        all_equal = all_equal and equal
        checks.append({
            "multidegree": [names[g] for g in multidegree],
            **report,
        })
    result = {
        "theta": theta.names(),
        "all_equal": all_equal,
        "checks": checks,
    }
    if not all_equal:
        raise CounterexampleFound(result)
    return result


def cmd_monomials(inputs):
    from .identities import monomial_identities

    found = monomial_identities(inputs.theta, inputs.max_degree)
    return {
        "max_degree": inputs.max_degree,
        "identities": [[inputs.group.names[g] for g in word]
                       for word in sorted(found, key=lambda w: (len(w), w))],
    }


def cmd_transitivity_check(inputs):
    from .identities import chain_transitivity_identity_check

    report = chain_transitivity_identity_check(inputs.poset, inputs.group)
    result = {
        "degree": report["degree"],
        "classes": report["classes"],
        "pairs_checked": report["pairs_checked"],
        "separated": report["separated"],
        "unseparated": [[a.names(), b.names()]
                        for a, b in report["unseparated"]],
    }
    if not report["separated"]:
        raise CounterexampleFound(result)
    return result


# One entry per subcommand: its handler, the flags it requires, and the
# optional flags echoed after them in the report's "inputs". The handler
# takes the values _read_inputs reads from the flags named here. A tuple
# echoes the first of its flags that is set: verify-reduction draws a
# random theta from --seed only when --theta is absent.
COMMANDS = {
    "validate": (cmd_validate, ("poset",), ()),
    "chains": (cmd_chains, ("poset",), ()),
    "components": (cmd_components, ("poset",), ()),
    "bound": (cmd_bound, ("poset",), ()),
    "aut": (cmd_aut, ("poset",), ()),
    "chain-transitive": (cmd_chain_transitive, ("poset",), ()),
    "mobius": (cmd_mobius, ("poset",), ()),
    "decompose": (cmd_decompose, ("poset", "morphism"), ()),
    "grade": (cmd_grade, ("poset", "group", "theta"), ()),
    "count": (cmd_count, ("poset", "group"), ("verify",)),
    "classify": (cmd_classify, ("poset", "group"), ()),
    "equiv": (cmd_equiv, ("poset", "group", "theta", "mu"), ()),
    "slice": (cmd_slice, ("poset", "group", "theta", "multidegree"), ()),
    "compare-identities": (cmd_compare_identities,
                           ("poset", "group", "theta", "mu"), ("max_degree",)),
    "verify-reduction": (cmd_verify_reduction, ("poset", "group"),
                         ("max_degree", ("theta", "seed"), "multidegree")),
    "monomials": (cmd_monomials, ("poset", "group", "theta"), ("max_degree",)),
    "transitivity-check": (cmd_transitivity_check, ("poset", "group"), ()),
}


class UsageError(Exception):
    """A command line that cannot be read; reported as one
    "incgrade: error:" line, with exit code 2."""


# Each flag: its kind (None for a switch, str, int, or a tuple of the
# values it allows), its default and its help. argparse is handed the
# flags in this order, which orders the flags an ambiguous prefix names.
FLAGS = {
    "help": (None, None, "show this help and exit"),
    "poset": (str, None,
              f"poset JSON file or fixture name ({', '.join(FIXTURE_NAMES)})"),
    "group": (str, None, "group spec such as C2, C3, C2xC2, S3"),
    "theta": (str, None, "grading map as CSV of element names"),
    "mu": (str, None, "second grading map as CSV"),
    "multidegree": (str, None, "multidegree as CSV of group element names"),
    "morphism": (str, None, "morphism JSON file"),
    "max_degree": (int, 3, "degree limit for identity sweeps"),
    "verify": (None, False, "enable brute-force cross-checks"),
    "format": (("json", "table"), "table", "output format: json or table"),
    "seed": (int, 0, "seed for randomized subcommands"),
}


def _plain(argv):
    """The values of argv in the plain form, or None for any other argv.

    The plain form is the command first, then flags by their full names,
    each value flag followed by a value of its kind that does not start
    with "-" (and --max-degree not negative). argparse reads every such
    value as a value, so it would read the same values.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = {f"--{flag.replace('_', '-')}": flag
               for flag in FLAGS if flag != "help"}
    values = {flag: FLAGS[flag][1] for flag in options.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = options.get(token)
        if flag is None:
            return None
        kind = FLAGS[flag][0]
        if kind is None:
            values[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
            if flag == "max_degree" and value < 0:
                return None
        elif kind is not str and value not in kind:
            return None
        values[flag] = value
    return SimpleNamespace(command=argv[0], **values)


def _argparse(argv):
    """How argparse reads argv against COMMANDS and FLAGS: the values, or
    None when -h or --help comes before any error. Its error message is
    raised as a UsageError; its help is not printed."""
    import argparse

    def max_degree(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"must not be negative: {value}")
        return value

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

        def print_help(self, file=None):
            pass

    parser = Parser(prog="incgrade")
    parser.add_argument("command", choices=sorted(COMMANDS))
    for flag, (kind, default, _) in FLAGS.items():
        if flag == "help":  # argparse adds -h and --help itself
            continue
        option = f"--{flag.replace('_', '-')}"
        if kind is None:
            parser.add_argument(option, action="store_true")
        elif isinstance(kind, tuple):
            parser.add_argument(option, choices=kind, default=default)
        else:
            parser.add_argument(option, default=default, type=(
                max_degree if flag == "max_degree" else kind))
    try:
        return parser.parse_args(argv)
    except SystemExit:  # the help action exits once it has printed
        return None


def parse_args(argv):
    """The command and flag values of argv, or None when -h or --help
    comes before any error. A command line in the plain form is read
    without importing argparse and gettext, which would add about 3 ms
    to each command (2-vCPU VM, Python 3.11)."""
    return _plain(argv) or _argparse(argv)


def _usage():
    """The --help text, read off COMMANDS and FLAGS."""
    lines = ["usage: incgrade COMMAND [--FLAG VALUE ...]", "",
             "Elementary group gradings on incidence algebras of finite "
             "posets.", "", "commands and the flags they require:"]
    for command, (_, required, _) in sorted(COMMANDS.items()):
        lines.append(f"  {command:<20}" + " ".join(
            f"--{flag.replace('_', '-')}" for flag in required))
    lines += ["", "flags (a unique prefix also works):"]
    for flag, (kind, default, text) in FLAGS.items():
        option = f"--{flag.replace('_', '-')}"
        if flag == "help":
            option = "-h, --help"
        elif kind is not None:
            option += " VALUE"
        if kind is not None and default is not None:
            text += f" (default {default})"
        lines.append(f"  {option:<22}{text}")
    return "\n".join(lines)


def _echo_flags(args, required, echoed):
    echo = {flag: getattr(args, flag) for flag in required}
    for choice in echoed:
        for flag in choice if isinstance(choice, tuple) else (choice,):
            if getattr(args, flag) is not None:
                echo[flag] = getattr(args, flag)
                break
    return echo


def _read_inputs(args, required, echoed):
    """The values of the flags a command's COMMANDS row names, read in
    one fixed order, so that when several inputs are bad the earliest is
    reported: the poset (every command requires it), the group, the
    morphism, theta (drawn from --seed when --theta is absent), mu, the
    multidegree, and last the DEGREE_CAP check, on the multidegree's
    length if one was given, else on --max-degree where it is echoed."""
    names = set(required).union(
        *(choice if isinstance(choice, tuple) else (choice,)
          for choice in echoed))
    inputs = SimpleNamespace(**{flag: getattr(args, flag) for flag in names})
    poset = inputs.poset = load_poset(args.poset)
    if "group" in names:
        group = inputs.group = group_from_spec(args.group)
    if "morphism" in names:
        from .algebra import morphism_from_json

        inputs.morphism = morphism_from_json(poset, read_json(args.morphism))
    if "theta" in names and args.theta is None:
        import random

        rng = random.Random(args.seed)
        inputs.theta = GradingMap(
            poset, group, [rng.randrange(group.order) for _ in range(poset.n)])
    for flag in ("theta", "mu", "multidegree"):
        if flag in names and getattr(args, flag) is not None:
            value = tuple(group.index_of(part.strip())
                          for part in getattr(args, flag).split(","))
            if flag != "multidegree":
                value = GradingMap(poset, group, value)
            setattr(inputs, flag, value)
    if getattr(inputs, "multidegree", None) is not None:
        degree = len(inputs.multidegree)
    else:
        degree = getattr(inputs, "max_degree", 0)
    if degree > DEGREE_CAP:
        raise CapExceededError(
            f"multidegree length {degree} exceeds the cap {DEGREE_CAP}")
    return inputs


def _render_table(report, elapsed_ms):
    lines = [f"command: {report['command']}"]
    for key, value in report["inputs"].items():
        if value is not None:
            lines.append(f"  {key}: {value}")
    lines.append("results:")
    lines.extend(_table_lines(report["results"], indent=2))
    lines.append(f"elapsed: {elapsed_ms:.1f} ms")
    return "\n".join(lines)


def _table_lines(value, indent):
    pad = " " * indent
    lines = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_table_lines(item, indent + 2))
            else:
                lines.append(f"{pad}{key}: {json.dumps(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_table_lines(item, indent + 2))
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def run(argv):
    """Run one subcommand; returns (its rendered output, exit code). A
    command line that cannot be read raises UsageError."""
    args = parse_args(argv)
    if args is None:
        return _usage(), 0
    command = args.command
    handler, required, echoed = COMMANDS[command]
    for field in required:
        if getattr(args, field) is None:
            raise UsageError(
                f"{command} requires --{field.replace('_', '-')}")
    started = time.monotonic()
    code = 0
    try:
        results = handler(_read_inputs(args, required, echoed))
    except CounterexampleFound as exc:
        results = exc.args[0]
        code = 1
    except VerificationError as exc:
        results = {"error": str(exc)}
        code = 1
    elapsed_ms = (time.monotonic() - started) * 1000.0
    report = {
        "command": command,
        "version": __version__,
        "inputs": _echo_flags(args, required, echoed),
        "results": results,
        "timing_ms": None,
    }
    try:
        if args.format == "json":
            return json.dumps(report, indent=2), code
        return _render_table(report, elapsed_ms), code
    except ValueError:  # an int past sys.get_int_max_str_digits()
        raise ResultTooLongError() from None


def _write(stream, text):
    """Write text and a newline to stream and flush it. Returns None, or
    why it could not: the stream is closed (None) or the write failed."""
    if stream is None:
        return "the stream is closed"
    try:
        stream.write(text + "\n")
        stream.flush()
    except (OSError, UnicodeEncodeError) as exc:
        return exc
    return None


def _main(argv):
    try:
        output, code = run(argv)
    except UsageError as exc:
        _write(sys.stderr, f"incgrade: error: {exc}")
        return 2
    except (IncgradeError, OSError) as exc:
        _write(sys.stderr, f"error: {exc}")
        return 2
    failure = _write(sys.stdout, output)
    # A reader that went away early keeps the command's code.
    if failure is None or isinstance(failure, BrokenPipeError):
        return code
    _write(sys.stderr, f"error: cannot write the report: {failure}")
    return 2


def main(argv=None):
    """Run the command in argv and return its exit code.

    Without argv, as the `incgrade` script runs it, the command comes
    from sys.argv and the process ends here: the output is flushed, then
    os._exit skips the interpreter's teardown, so atexit handlers do not
    run.
    """
    if argv is not None:
        return _main(argv)
    code = _main(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    main()
