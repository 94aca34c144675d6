"""Bundled poset fixtures used by the CLI and the test suite.

Fixtures are addressed by short name; anything that is not a known name
is treated as a filesystem path to a poset JSON file.
"""

import json
import os

from .errors import MalformedInputError
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
