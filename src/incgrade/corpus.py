"""Input formats: the bundled poset fixtures, JSON input files, and the
rational text form 'num' or 'num/den', read and written as the integer
pair (num, den). A poset is named by fixture, or else by the path of a
poset JSON file.
"""

import json
import os
import re
import sys
from math import gcd

from .errors import MalformedInputError, ResultTooLongError
from .poset import poset_from_json

FIXTURE_NAMES = (
    "c1",
    "c2",
    "c3",
    "c4",
    "antichain1",
    "antichain2",
    "antichain3",
    "antichain4",
    "example",
    "diamond",
    "c2_disjoint_c3",
)

# Read by path rather than through importlib.resources, whose import
# costs more than the rest of the package's.
_FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def parse_rational(text):
    """Parse 'num' or 'num/den' (ASCII digits, num optionally signed) into
    the integers (num, den) in lowest terms, den positive. Any other form,
    exponents and decimal points included, a part of more digits than
    int() converts (sys.get_int_max_str_digits(), 0 for no limit) or a
    zero denominator is malformed. The pattern is compiled on first use,
    through re's cache, so a command that reads no rational skips it."""
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", str(text).strip())
    if match is None:
        raise MalformedInputError(
            f"rational must be 'num' or 'num/den', got {text!r}")
    num, den = match.groups()
    limit = sys.get_int_max_str_digits()
    if limit and max(len(num.lstrip("+-")), len(den or "")) > limit:
        raise MalformedInputError(f"rational part has more than {limit} digits")
    num, den = int(num), int(den or 1)
    if not den:
        raise MalformedInputError(f"zero denominator in {text!r}")
    content = gcd(num, den)
    return num // content, den // content


def format_rational(num, den=1):
    """Canonical string form of num / den (den positive) in lowest terms:
    'num' for an integer, 'num/den' otherwise."""
    content = gcd(num, den)
    num, den = num // content, den // content
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # a part past sys.get_int_max_str_digits()
        raise ResultTooLongError() from None


def load_fixture(name):
    return poset_from_json(read_json(os.path.join(_FIXTURE_DIR, f"{name}.json")))


def load_poset(name_or_path):
    """Load a bundled fixture by name, or a poset JSON file by path."""
    if name_or_path in FIXTURE_NAMES:
        return load_fixture(name_or_path)
    if not os.path.exists(name_or_path):
        raise FileNotFoundError(
            f"{name_or_path!r} is neither a fixture name nor a file; "
            f"fixtures: {', '.join(FIXTURE_NAMES)}")
    return poset_from_json(read_json(name_or_path))


def read_json(path):
    """Parse a JSON input file, which must be UTF-8 (RFC 8259)."""
    try:
        handle = open(path, encoding="utf-8")
    except ValueError as exc:  # a NUL byte in the path
        raise MalformedInputError(f"{path!r}: {exc}") from None
    with handle:
        return _parse_json(json.load, handle, path)


def _parse_json(parse, source, label):
    """parse(source). A text that is not JSON, does not decode, is nested
    too deeply to parse, or holds an integer too long to convert is
    malformed input, reported after label."""
    try:
        return parse(source)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{label}: {exc}") from None
    except RecursionError:
        raise MalformedInputError(f"{label}: JSON nested too deeply") from None
    except UnicodeDecodeError as exc:
        raise MalformedInputError(
            f"{label}: not UTF-8 text (byte {exc.start})") from None
    except ValueError:
        raise MalformedInputError(
            f"{label}: JSON integer has too many digits") from None


def corpus_posets():
    """All bundled fixtures, name to poset, in the canonical order."""
    return {name: load_fixture(name) for name in FIXTURE_NAMES}
