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
    """Parse a JSON input file, which must be UTF-8 (RFC 8259); a file
    that does not decode, a document nested too deeply to parse, or one
    with an integer too long to convert, is malformed input."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError:
            raise
        except RecursionError:
            raise MalformedInputError(
                f"{path}: JSON nested too deeply") from None
        except UnicodeDecodeError as exc:
            raise MalformedInputError(
                f"{path}: not UTF-8 text (byte {exc.start})") from None
        except ValueError:
            raise MalformedInputError(
                f"{path}: JSON integer has too many digits") from None


def corpus_posets():
    """All bundled fixtures, name to poset, in the canonical order."""
    return {name: load_fixture(name) for name in FIXTURE_NAMES}
