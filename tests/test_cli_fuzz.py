"""Fuzz of the CLI's exit-code contract over every command in COMMANDS.

Each example builds one invocation from valid inputs (a poset, a group, a
grading, a morphism and flag values) and then spoils some of them: JSON
values of the wrong type or shape, files that are not UTF-8, out-of-range
and over-long integers, empty values, missing flags. It runs in-process
through cli.main. Every exit must be 0, 1 or 2; exit 2 gives exactly one
stderr line and no traceback; exit 1 comes only with a results payload.
Inputs stay small: posets of at most four elements and groups of at most
six.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from incgrade.cli import COMMANDS, main  # noqa: E402
from incgrade.corpus import load_poset  # noqa: E402
from incgrade.grading import group_from_spec  # noqa: E402
from incgrade.poset import poset_from_json  # noqa: E402

# More digits than int() converts by default; in a JSON file the marker
# string is written out as a bare integer of this many digits.
LONG = "1" * 5000
LONG_MARK = "<long integer>"

# Files that do not decode as UTF-8: a UTF-16 byte order mark before a
# document, and a Latin-1 label.
UNDECODABLE = [b'\xff\xfe{"elements": []}', '["\xe9"]'.encode("latin-1")]

SCALARS = [None, True, 0, -1, 2, 7, 10 ** 30, 1.5, "", "x", "1/0", "-2/3",
           LONG, LONG_MARK, [], {}]
FIXTURES = ["c1", "c2", "c3", "antichain2", "example", "diamond"]
GROUPS = ["C1", "C2", "C3", "S3", "C2xC2",
          '{"names": ["1", "h"], "table": [[0, 1], [1, 0]]}']
BAD_GROUPS = ["C0", "S9", "D4", "C2x", "", "C" + LONG, "C257",
              '{"names": ["1", "h"], "table": [[0, 1], [1, 1]]}',
              '{"names": ["1"], "table": [[' + LONG + "]]}"]
BAD_NAMES = ["z", "", " ", LONG]
BAD_NUMBERS = ["-1", "two", "", "9" * 40, LONG]


def spoiled(draw, valid, bad):
    """valid three times in four, else one of the bad values."""
    return draw(st.sampled_from(bad)) if draw(st.integers(0, 3)) == 0 else valid


@st.composite
def mutated(draw, value):
    """value with one node replaced, dropped or wrapped, or unchanged."""
    containers = isinstance(value, (list, dict)) and value
    if containers and draw(st.booleans()):
        out = list(value) if isinstance(value, list) else dict(value)
        key = draw(st.sampled_from(range(len(out)) if isinstance(out, list)
                                   else sorted(out)))
        out[key] = draw(mutated(out[key]))
        return out
    action = draw(st.sampled_from(["keep", "replace", "wrap", "drop"]))
    if action == "replace":
        return draw(st.sampled_from(SCALARS))
    if action == "wrap":
        return [value]
    if action == "drop" and containers:
        out = list(value) if isinstance(value, list) else dict(value)
        del out[draw(st.sampled_from(range(len(out)) if isinstance(out, list)
                                     else sorted(out)))]
        return out
    return value


def json_text(draw, value):
    """The JSON text of value, spoiled one time in two: mutated, or raw
    text or bytes that are not JSON."""
    if draw(st.booleans()):
        return json.dumps(value)
    raw = draw(st.sampled_from([None, None, None, "", "{", "[1, 2",
                                *UNDECODABLE]))
    if raw is not None:
        return raw
    return json.dumps(draw(mutated(value))).replace(json.dumps(LONG_MARK), LONG)


def write(path, content):
    """Write text, or bytes as they are."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


@st.composite
def posets(draw):
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)
                  if pairs else st.just([]))
    return {"elements": [f"e{i}" for i in range(n)],
            "covers": [list(c) for c in sorted(covers)]}


def csv(draw, names, length):
    values = [draw(st.sampled_from(names)) for _ in range(length)]
    if draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, length - 1))] = draw(st.sampled_from(BAD_NAMES))
    elif draw(st.integers(0, 5)) == 0:
        values = values[1:] if draw(st.booleans()) else values + values[:1]
    return ",".join(values)


@st.composite
def invocations(draw, tmp_path):
    """argv of one invocation with some inputs spoiled; writes the files
    it names."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, required, echoed = COMMANDS[command]
    flags = {}
    if draw(st.booleans()):
        flags["poset"] = spoiled(draw, draw(st.sampled_from(FIXTURES)),
                                 ["missing.json"])
        poset = load_poset(flags["poset"]) if flags["poset"] in FIXTURES else None
    else:
        doc = draw(posets())
        poset = poset_from_json(doc)
        write(tmp_path / "poset.json", json_text(draw, doc))
        flags["poset"] = str(tmp_path / "poset.json")
    n = poset.n if poset else 2
    pairs = poset.comparable_pairs() if poset else [(0, 0)]
    flags["group"] = spoiled(draw, draw(st.sampled_from(GROUPS)), BAD_GROUPS)
    names = (group_from_spec(flags["group"]).names
             if flags["group"] in GROUPS else ("1", "h"))
    flags["theta"] = csv(draw, names, n)
    flags["mu"] = csv(draw, names, n)
    flags["multidegree"] = csv(draw, names, draw(st.integers(1, 4)))
    write(tmp_path / "morphism.json", json_text(
        draw, [{"pair": list(p), "image": [[p[0], p[1], "1"]]} for p in pairs]))
    flags["morphism"] = str(tmp_path / "morphism.json")
    flags["max_degree"] = spoiled(draw, draw(st.sampled_from("0123")),
                                  BAD_NUMBERS + ["5"])
    flags["seed"] = spoiled(draw, draw(st.sampled_from("0179")), BAD_NUMBERS)
    optional = [f for choice in echoed
                for f in (choice if isinstance(choice, tuple) else (choice,))]
    argv = [command]
    for flag in list(required) + optional:
        if draw(st.integers(0, 19)) == 0:
            continue  # a missing flag
        if flag == "verify":
            argv.append("--verify")
        else:
            argv += [f"--{flag.replace('_', '-')}", flags[flag]]
    return argv + ["--format", "json"]


@hypothesis.settings(max_examples=150, deadline=None, suppress_health_check=[
    hypothesis.HealthCheck.function_scoped_fixture,
    hypothesis.HealthCheck.too_slow])
@hypothesis.given(data=st.data())
def test_every_exit_keeps_the_contract(tmp_path, data):
    argv = data.draw(invocations(tmp_path), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert "set_int_max_str_digits" not in err
    else:
        assert err == ""
        report = json.loads(out)
        assert report["command"] == argv[0]
        if code == 1:
            assert isinstance(report["results"], dict) and report["results"]
