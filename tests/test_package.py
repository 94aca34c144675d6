"""Checks on the package as a whole: every module parses as Python 3.10,
every import in src/incgrade is used, no module imports a lazy standard
module when it is imported, every raise is of the package's own error
types, every error type is raised somewhere, out-of-range values raise
them, every exported name resolves, the CLI runs on the standard library
alone, and the bench's reference imports no incgrade."""

import ast
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import incgrade
from incgrade import errors
from incgrade.algebra import (AlgebraMorphism, IncidenceFunction, delta,
                              e_basis, evaluate, induced_auto, inner_auto,
                              zeta)
from incgrade.corpus import load_poset
from incgrade.errors import (MalformedInputError, MismatchError,
                             NotAutomorphismError)
from incgrade.grading import (EquivalenceWitness, FiniteGroup, GradingMap,
                              cyclic_group)
from incgrade.identities import (identity_slice, monomial_identities,
                                 slices_equal_upto, verify_chain_reduction)
from incgrade.poset import Poset, segment, subposet

from util import morphism_json

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "incgrade").glob("*.py"))
# The reference that tier-1 and the bench check incgrade's answers with.
REFERENCE = [SRC.parent / "perfbench" / name for name in ("oracle.py", "checks.py")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_parses_as_python_3_10(path):
    # pyproject.toml declares Python 3.10.7 as the floor.
    ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))


def test_newer_syntax_is_found():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


def unused_imports(source):
    """The names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    assert unused_imports(
        "import json\nfrom .grading import GradingMap, cyclic_group\n"
        "cyclic_group(2)\n") == [(1, "json"), (2, "GradingMap")]


# Standard modules that a command imports on use only, if at all.
LAZY_STDLIB = {"fractions", "decimal", "random"}


def eager_imports(source):
    """(line, module) for each import of a LAZY_STDLIB module that runs
    when the module is imported: one outside every function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            found.extend((child.lineno, name) for name in names
                         if name.split(".")[0] in LAZY_STDLIB)
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_lazy_module_is_imported_eagerly(path):
    assert eager_imports(path.read_text(encoding="utf-8")) == []


def test_eager_import_is_found():
    source = ("import json, random\nfrom fractions import Fraction\n"
              "from .decimal import x\nif x:\n    import decimal\n"
              "def f():\n    import random\n"
              "class C:\n    from random import choice\n"
              "    def g(self):\n        import fractions\n")
    assert eager_imports(source) == [
        (1, "random"), (2, "fractions"), (5, "decimal"), (9, "random")]


# The errors a module may raise besides those of incgrade.errors: the
# CLI's counterexample signal and usage error, which never leave the CLI,
# the --max-degree converter's error, which argparse catches inside
# parse_args, the unknown --poset that load_poset reports, and the
# AttributeError that a module __getattr__ owes an unknown name (PEP 562).
OTHER_RAISES = {
    ("__init__.py", "AttributeError"),
    ("cli.py", "CounterexampleFound"),
    ("cli.py", "UsageError"),
    ("cli.py", "argparse.ArgumentTypeError"),
    ("corpus.py", "FileNotFoundError"),
}
ERROR_CLASSES = {name for name, value in vars(errors).items()
                 if isinstance(value, type)
                 and issubclass(value, errors.IncgradeError)}


def raises(source):
    """(line, raised name) for each raise in source but a bare re-raise."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((node.lineno, ast.unparse(exc)))
    return found


def foreign_raises(name, source):
    """The raises of a module that are neither a bare re-raise, nor of an
    incgrade.errors class, nor listed in OTHER_RAISES."""
    return [(line, raised) for line, raised in raises(source)
            if raised not in ERROR_CLASSES and (name, raised) not in OTHER_RAISES]


def unraised_classes(classes, sources):
    """The classes, IncgradeError aside, that no source raises by name."""
    raised = {name for source in sources for _, name in raises(source)}
    return sorted(classes - raised - {"IncgradeError"})


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_raise_is_a_package_error(path):
    assert foreign_raises(path.name, path.read_text(encoding="utf-8")) == []


def test_foreign_raise_is_found():
    source = ("try:\n    pass\nexcept KeyError:\n    raise\n"
              "raise ValueError('x')\nraise MalformedInputError('y')\n"
              "raise FileNotFoundError\n")
    assert foreign_raises("poset.py", source) == [
        (5, "ValueError"), (7, "FileNotFoundError")]
    assert foreign_raises("corpus.py", source) == [(5, "ValueError")]


def test_every_error_class_is_raised():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unraised_classes(ERROR_CLASSES, sources) == []


def test_unraised_class_is_found():
    sources = ["raise MismatchError('x')\n",
               "try:\n    pass\nexcept CapExceededError:\n    raise\n"
               "raise IncgradeError\n"]
    assert unraised_classes(
        {"IncgradeError", "MismatchError", "CapExceededError"},
        sources) == ["CapExceededError"]


DIAMOND = load_poset("diamond")
THETA = GradingMap(DIAMOND, cyclic_group(2), (0, 1, 0, 1))
# sigma must pass the index rule, be a permutation and preserve the order.
APART = GradingMap(load_poset("antichain2"), cyclic_group(2), (0, 1))
CHAIN = GradingMap(load_poset("c2"), cyclic_group(2), (0, 1))


@pytest.mark.parametrize("call, error, message", [
    (lambda: identity_slice(THETA, (5,)), MalformedInputError,
     "multidegree value out of range 0..1"),
    (lambda: identity_slice(THETA, ("a", "b")), MalformedInputError,
     "multidegree values must be integers, not str"),
    (lambda: verify_chain_reduction(THETA, (7,)), MalformedInputError,
     "multidegree value out of range 0..1"),
    (lambda: verify_chain_reduction(THETA, None), MalformedInputError,
     "multidegree must be a list, not NoneType"),
    (lambda: subposet(DIAMOND, [0, 99]), MalformedInputError,
     "subposet value out of range 0..3"),
    (lambda: THETA.shift([9]), MalformedInputError,
     "shift value out of range 0..1"),
    (lambda: THETA.shift([]), MismatchError,
     "a shift needs one value per connected component: got 0 for 1 components"),
    (lambda: APART.compose_with_automorphism((0.0, 1.0)), MalformedInputError,
     "sigma values must be integers, not float"),
    (lambda: APART.compose_with_automorphism((0, 5)), MalformedInputError,
     "sigma value out of range 0..1"),
    (lambda: APART.compose_with_automorphism((0, 0)), NotAutomorphismError,
     "sigma is not a permutation"),
    (lambda: CHAIN.compose_with_automorphism((1, 0)), NotAutomorphismError,
     "sigma does not preserve the order"),
    (lambda: EquivalenceWitness(None, None), MalformedInputError,
     "shifts must be a list, not NoneType"),
    (lambda: EquivalenceWitness([0], 5), MalformedInputError,
     "sigma must be a list, not int"),
    (lambda: EquivalenceWitness([0], (1, 0)).check(CHAIN, CHAIN),
     NotAutomorphismError, "sigma does not preserve the order"),
], ids=["slice-range", "slice-names", "reduction-range", "reduction-none",
        "subposet-range", "shift-range", "shift-length", "compose-float",
        "compose-range", "compose-repeat", "compose-order", "witness-none",
        "witness-sigma", "witness-order"])
def test_out_of_range_values_raise_package_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


AB = ["a", "b"]
DEGREE = "a degree must be an integer of at least 0"
DIGITS = sys.get_int_max_str_digits()


# Each call breaks the index rule (an int in 0..n-1, never a bool), asks
# for a list or a mapping and gets none, breaks the degree rule, or gets
# an int too long for str() or repr() to write.
@pytest.mark.parametrize("call, message", [
    (lambda: Poset(None, []), "poset elements must be a list, not NoneType"),
    (lambda: Poset(AB, None), "poset relation must be a list, not NoneType"),
    (lambda: Poset(AB, [(0, 1.0)]), "relation pair values must be integers, not float"),
    (lambda: Poset(AB, [("0", 1)]), "relation pair values must be integers, not str"),
    (lambda: Poset(AB, [(0, 1, 2)]), "relation pair must have 2 values, got 3"),
    (lambda: Poset(AB, [(True, 1)]), "relation pair values must be integers, not bool"),
    (lambda: FiniteGroup(None, [[0]]), "group names must be a list, not NoneType"),
    (lambda: AlgebraMorphism(DIAMOND, None),
     "images must be a mapping, not NoneType"),
    (lambda: IncidenceFunction(DIAMOND, [1, 2]),
     "entries must be a mapping, not list"),
    (lambda: IncidenceFunction(DIAMOND, {(0, 1.0): 1}),
     "pair values must be integers, not float"),
    (lambda: e_basis(DIAMOND, 0.5, 1), "pair values must be integers, not float"),
    (lambda: segment(DIAMOND, 0, True), "pair values must be integers, not bool"),
    (lambda: subposet(DIAMOND, [True, 0]), "subposet values must be integers, not bool"),
    (lambda: evaluate(DIAMOND, [1], [(0.7, 1)]),
     "pair values must be integers, not float"),
    (lambda: induced_auto(DIAMOND, None), "sigma must be a list, not NoneType"),
    (lambda: induced_auto(DIAMOND, (0.0, 2.0, 1.0, 3.0)),
     "sigma values must be integers, not float"),
    (lambda: slices_equal_upto(THETA, THETA, "x"), DEGREE),
    (lambda: slices_equal_upto(THETA, THETA, 2.5), DEGREE),
    (lambda: monomial_identities(THETA, None), DEGREE),
    (lambda: monomial_identities(THETA, -1), DEGREE),
    (lambda: Poset([10 ** 5000], []),
     f"poset element holds an int of more than {DIGITS} digits"),
    (lambda: FiniteGroup([10 ** 5000], [[0]]),
     f"group name holds an int of more than {DIGITS} digits"),
    (lambda: IncidenceFunction(load_poset("c2"), {(0, 1): [10 ** 5000]}),
     f"function value holds an int of more than {DIGITS} digits"),
    (lambda: IncidenceFunction(load_poset("c2"), {}, den=[10 ** 5000]),
     f"den holds an int of more than {DIGITS} digits"),
    (lambda: cyclic_group(2).index_of(10 ** 5000),
     f"group element holds an int of more than {DIGITS} digits"),
], ids=["poset-none", "relation-none", "relation-float", "relation-str",
        "relation-triple", "relation-bool", "group-none", "morphism-none",
        "function-list", "function-float", "basis-float", "segment-bool",
        "subposet-bool", "evaluate-float", "sigma-none", "sigma-float",
        "slices-str", "slices-float", "monomials-none", "monomials-negative",
        "label-long", "name-long", "value-long", "den-long", "element-long"])
def test_malformed_arguments_raise_package_errors(call, message):
    with pytest.raises(MalformedInputError) as info:
        call()
    assert str(info.value) == message


def test_every_export_resolves():
    missing = [name for name in incgrade.__all__
               if not hasattr(incgrade, name)]
    assert missing == []


# Run without site, so only the interpreter's own path and src are on
# sys.path; report the modules loaded by the end of the command.
_LOADED = """
import sys
sys.path.insert(0, sys.argv[1])
from incgrade.cli import main
code = main(sys.argv[2:])
print(sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""

# Loaded on use only: the algebra and identity layers, random for a
# theta drawn from --seed, and the fixture reader incgrade does without.
# fractions and decimal are loaded by no command.
LAZY = {"fractions", "decimal", "random", "importlib.resources",
        "incgrade.algebra", "incgrade.identities", "incgrade.linalg"}


def loaded_modules(*argv):
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _LOADED, str(SRC), *argv],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(ast.literal_eval(proc.stderr))


def test_cli_runs_on_the_standard_library_alone(tmp_path):
    out, loaded = loaded_modules("validate", "--poset", "example")
    assert "valid: true" in out
    ours = sys.stdlib_module_names | {"incgrade", "__main__"}
    assert sorted(m for m in loaded if m.split(".")[0] not in ours) == []
    assert sorted(loaded & LAZY) == []
    assert sorted(loaded & {"argparse", "gettext"}) == []
    # The algebra and identity commands compute on integers and write a
    # rational from its integer pair, so none loads fractions or decimal.
    poset = load_poset("c3")
    phi = inner_auto(2 * zeta(poset) - Fraction(1, 3) * delta(poset))
    morphism = tmp_path / "phi.json"
    morphism.write_text(json.dumps(morphism_json(phi)), encoding="utf-8")
    # The algebra commands read and write rationals through corpus and
    # never load the kernel that slices run on; a slice needs no algebra
    # arithmetic.
    for argv, layer, unused in (
            (("mobius", "--poset", "diamond"), "incgrade.algebra",
             "incgrade.linalg"),
            (("decompose", "--poset", "c3", "--morphism", str(morphism)),
             "incgrade.algebra", "incgrade.linalg"),
            (("slice", "--poset", "c2", "--group", "C2", "--theta", "1,h",
              "--multidegree", "h,h"), "incgrade.linalg", "incgrade.algebra")):
        out, loaded = loaded_modules(*argv)
        assert f"command: {argv[0]}" in out
        assert layer in loaded
        assert unused not in loaded, argv
        assert sorted(loaded & {"argparse", "gettext", "fractions",
                                "decimal", "random"}) == [], argv
    assert "dimension: 2" in out
    # Comparing slices, by chain words or by search, and the other
    # identity commands stay in integers too.
    for argv in (("compare-identities", "--mu", "1,1"),
                 ("compare-identities", "--mu", "h,1"),
                 ("verify-reduction",), ("monomials",)):
        out, loaded = loaded_modules(*argv, "--poset", "c2", "--group", "C2",
                                     "--theta", "1,h", "--max-degree", "2")
        assert f"command: {argv[0]}" in out
        assert "incgrade.identities" in loaded
        assert sorted(loaded & {"argparse", "gettext", "fractions",
                                "decimal", "random"}) == [], argv


def test_only_a_command_line_off_the_plain_form_loads_argparse():
    plain, loaded = loaded_modules("validate", "--poset", "example",
                                   "--format", "json")
    assert sorted(loaded & {"argparse", "gettext"}) == []
    out, loaded = loaded_modules("validate", "--pos", "example",
                                 "--format", "json")
    assert out == plain
    assert "argparse" in loaded


def test_only_a_theta_drawn_from_seed_loads_random():
    out, loaded = loaded_modules("verify-reduction", "--poset", "c2",
                                 "--group", "C2", "--seed", "3",
                                 "--max-degree", "2")
    assert "command: verify-reduction" in out
    assert "random" in loaded
    out, loaded = loaded_modules("verify-reduction", "--poset", "c2",
                                 "--group", "C2", "--seed", "3",
                                 "--theta", "1,h", "--max-degree", "2")
    assert "command: verify-reduction" in out
    assert "random" not in loaded


def imported_modules(source):
    """The top-level names of the modules a source imports, "." for a
    relative import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." if node.level else node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", REFERENCE, ids=[p.name for p in REFERENCE])
def test_reference_imports_no_incgrade(path):
    assert "incgrade" not in imported_modules(path.read_text(encoding="utf-8"))


def test_incgrade_import_is_found():
    assert imported_modules(
        "import os.path\ndef f():\n    from incgrade.poset import Poset\n"
    ) == {"os", "incgrade"}
