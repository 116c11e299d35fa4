"""No module of the package imports a name it never uses (`__init__`, which
re-exports, is exempt), no function of the package imports a module of the
package, no function, class or method of the package is
defined without being named by the package, the scripts or the benchmark,
importing the CLI loads none of `dataclasses`, `inspect`, `typing` and
`pathlib`, and the big-integer kernel lives in `arith` alone and stays out of
the recurrence.  Only `cli.run` names `sys.stderr` among the CLI's functions
and the scripts.  `formats` owns every file format of the CLI: only it
imports `json` or opens a file, no module or script decodes JSON
but through its one decoder or writes JSON or CSV but through it, and `cli`
names no key of a format.  Only `extremal.seed_triple` and `cli.cmd_verify`
build the diagonal form of a pair (b, c).  No class of the package defines
`__get__`: per-instance caches are `functools.cached_property`.  The search
path, from `enumerate_minimal` down to `nearest_integer`, calls no `float`,
`math.log` or `math.exp` and divides with no `/`."""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import conic_approx

PACKAGE = Path(conic_approx.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parent.parent
# what the package, the scripts and the benchmark (not its tests) name
CALLERS = MODULES + sorted((REPO / "scripts").glob("*.py")) + sorted(
    p for p in (REPO / "perfbench").glob("*.py") if not p.name.startswith("test_")
)
# definitions kept although nothing above names them, each with its reason
UNNAMED_ALLOWED = {
    "verify_no_small_relation": "the paper's independence hypothesis; ROADMAP direction 6 wires it in",
    "kernel": "public API of conic_approx; reduce_form reads the radical off its one diagonalization",
    "rational_zero": "public API of conic_approx; reduce_form passes its diagonalization to _rational_zero",
    "as_fraction": "exact value of a dyadic, the tests' oracle",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_name():
    source = "import os, sys\nfrom math import gcd, isqrt as r\nprint(sys.argv, r(4))\n"
    assert unused_imports(source) == ["gcd", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def unnamed_definitions(defining: list[str], naming: list[str]) -> list[str]:
    """Functions, classes and methods (dunders aside) defined in `defining`
    whose names no expression of `naming` reads, as a variable or an attribute."""
    defined = {
        node.name
        for source in defining
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    named = set()
    for source in naming:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(defined - named)


def test_the_check_finds_an_unnamed_definition():
    source = (
        "class A:\n"
        "    def used(self): ...\n"
        "    def unused(self): ...\n"
        "    def __len__(self): ...\n"
        "def f(): ...\n"
    )
    assert unnamed_definitions([source], [source, "A().used(f)"]) == ["unused"]


def test_every_definition_is_named_outside_the_tests():
    sources = [p.read_text() for p in PACKAGE.glob("*.py")]
    assert unnamed_definitions(sources, [p.read_text() for p in CALLERS]) == sorted(UNNAMED_ALLOWED)


def function_imports(source: str) -> list[str]:
    """Functions of `source` that import a module of the package, by a
    relative import or by the name `conic_approx`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.ImportFrom) and (
                inner.level or (inner.module or "").split(".")[0] == "conic_approx"
            ) or isinstance(inner, ast.Import) and any(
                alias.name.split(".")[0] == "conic_approx" for alias in inner.names
            ):
                found.add(node.name)
    return sorted(found)


def test_the_check_finds_every_function_import():
    source = (
        "from . import arith\n"
        "def relative(seq):\n"
        "    from .extremal import extend\n"
        "def parent():\n"
        "    from .. import other\n"
        "def absolute():\n"
        "    import conic_approx.cli\n"
        "def named():\n"
        "    from conic_approx import formats\n"
        "def stdlib():\n"
        "    import json\n"
        "    from os import path\n"
    )
    assert function_imports(source) == ["absolute", "named", "parent", "relative"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports_a_module_of_the_package(path):
    # every import of the package sits at the top of its module, so the
    # module graph is the one its first lines state
    assert function_imports(path.read_text()) == []


def proved_uses(source: str) -> list[int]:
    """Lines of `source` that read or assign an attribute `proved` or pass a
    keyword argument `proved=`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "proved"
        or isinstance(node, ast.Call) and any(kw.arg == "proved" for kw in node.keywords)
    )


def test_the_check_finds_every_use_of_proved():
    source = "w.proved = 1\nx = w.proved\nWindow(seq, 2, proved=3)\nproved = 4\n"
    assert proved_uses(source) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_extremal_applies_the_reuse_rule(path):
    # `Window.proved` says what an entry may reuse; one walk in `extremal` sets it
    if path.name != "extremal.py":
        assert proved_uses(path.read_text()) == []


def names_read(source: str) -> set[str]:
    """Every name that `source` imports, reads as a variable or reads as an
    attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
    return names


def test_the_check_finds_every_kind_of_name():
    source = "from .extremal import Window as W\nimport x\nx.IDENTITIES\nSEED_IDENTITIES\n"
    assert names_read(source) >= {"Window", "IDENTITIES", "SEED_IDENTITIES"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_extremal_names_the_identity_tables(path):
    # `extremal.verdicts` is the one walk over the tables outside `extend`
    if path.name != "extremal.py":
        assert not names_read(path.read_text()) & {"SEED_IDENTITIES", "IDENTITIES", "Window"}


def test_cli_import_loads_no_avoidable_module():
    # every command starts a fresh process, so each pays the CLI's import;
    # dataclasses and inspect cost about a third of it, typing and pathlib
    # about a sixth.  -S keeps site hooks out.
    probe = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import conic_approx.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def split_products(source: str) -> list[str]:
    """Functions of `source` that multiply by recursive splitting, as Toom-3
    and Karatsuba do: each calls itself at least three times and shifts by
    an amount it computes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        self_calls = sum(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == node.name
            for n in ast.walk(node)
        )
        computed_shift = any(
            isinstance(n, ast.BinOp)
            and isinstance(n.op, (ast.RShift, ast.LShift))
            and not isinstance(n.right, ast.Constant)
            for n in ast.walk(node)
        )
        if self_calls >= 3 and computed_shift:
            found.append(node.name)
    return found


def test_the_check_finds_a_split_product():
    source = (
        "def karatsuba(a, b):\n"
        "    if a < 16 or b < 16:\n"
        "        return a * b\n"
        "    k = max(a.bit_length(), b.bit_length()) // 2\n"
        "    a1, a0, b1, b0 = a >> k, a & ((1 << k) - 1), b >> k, b & ((1 << k) - 1)\n"
        "    hi, lo = karatsuba(a1, b1), karatsuba(a0, b0)\n"
        "    mid = karatsuba(a0 + a1, b0 + b1) - hi - lo\n"
        "    return (hi << 2 * k) + (mid << k) + lo\n"
        "def fib(n):\n"
        "    return n if n < 2 else fib(n - 1) + fib(n - 2)\n"
    )
    assert split_products(source) == ["karatsuba"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_arith_splits_products(path):
    # one kernel: `arith.square` and `arith.mul`
    found = split_products(path.read_text())
    assert found == (["square", "mul"] if path.name == "arith.py" else [])


def called_names(source: str, function: str) -> set[str]:
    """Names that the function `function` of `source` calls, as a bare name
    or as an attribute."""
    node = next(
        n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef) and n.name == function
    )
    return {
        n.func.id if isinstance(n.func, ast.Name) else n.func.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))
    }


def test_the_recurrence_multiplies_with_the_operator():
    # the checks redo the recurrence's products t_{i-1} y_{i-1} with the
    # kernel, so a fault of either fails an identity instead of passing
    names = called_names((PACKAGE / "extremal.py").read_text(), "_append_member")
    assert "append" in names
    assert not names & {"square", "mul"}


def stderr_users(source: str) -> list[str]:
    """Functions of `source` (`<module>` for code outside any) that name
    `sys.stderr` or a bare `stderr`, to print to it or to write to it."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "stderr"
                and isinstance(child.value, ast.Name)
                and child.value.id == "sys"
                or isinstance(child, ast.Name) and child.id == "stderr"
            ):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_the_check_finds_every_stderr_writer():
    source = (
        "import sys\n"
        "from sys import stderr\n"
        "def printer(exc):\n"
        "    print(f'error: {exc}', file=sys.stderr)\n"
        "def writer(exc):\n"
        "    sys.stderr.write(str(exc))\n"
        "def bare(exc):\n"
        "    print(exc, file=stderr)\n"
        "def quiet(exc):\n"
        "    print(exc)\n"
        "    sys.stdout.write('stderr')\n"
        "sys.stderr.flush()\n"
    )
    assert stderr_users(source) == ["<module>", "bare", "printer", "writer"]


@pytest.mark.parametrize(
    "path", [PACKAGE / "cli.py", *sorted((REPO / "scripts").glob("*.py"))], ids=lambda p: p.name
)
def test_only_cli_run_prints_a_failure(path):
    # `cli.run` holds the one table of failure lines and exit codes
    assert stderr_users(path.read_text()) == (["run"] if path.name == "cli.py" else [])


def file_readers(source: str) -> list[int]:
    """Lines of `source` that import `json`, or a name from it, or call a
    bare `open`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(alias.name == "json" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "json"
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
    )


def test_the_check_finds_every_file_reader():
    source = (
        "import json\n"
        "from json import loads\n"
        "import os, json as j\n"
        "with open(path) as fp:\n"
        "    fp.read()\n"
        "os.open(path, 0)\n"
        "jsonl = 1\n"
    )
    assert file_readers(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_formats_reads_files(path):
    # `formats` reads every input file, so every integer string goes through
    # `read_int`, and opens every file `cli._write` stages
    if path.name != "formats.py":
        assert file_readers(path.read_text()) == []


def json_loaders(source: str) -> list[int]:
    """Lines of `source` that name `json.load` or `json.loads`, or import
    either from `json`."""
    loaders = ("load", "loads")
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in loaders
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
        or isinstance(node, ast.ImportFrom)
        and node.module == "json"
        and any(alias.name in loaders for alias in node.names)
    )


def test_the_check_finds_every_json_loader():
    source = (
        "import json\n"
        "from json import loads\n"
        "json.loads(text)\n"
        "read = json.load\n"
        "json.dumps(obj)\n"
        "json.JSONDecoder().decode(text)\n"
        "from json import load as L, dumps\n"
    )
    assert json_loaders(source) == [2, 3, 4, 7]


SOURCES = [*sorted(PACKAGE.glob("*.py")), *sorted((REPO / "scripts").glob("*.py"))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_formats_decoder_reads_json(path):
    # `formats._decode` keeps a JSON integer past the int/str limit for
    # `formats.read_field`, which names its field; `json.loads` fails on one
    # with `json`'s own message, which names none
    assert json_loaders(path.read_text()) == []


def format_writers(source: str) -> list[int]:
    """Lines of `source` that name `json.dump`, `json.dumps`, `csv.writer` or
    `csv.DictWriter`, or import one of them from its module."""
    writers = {"json": ("dump", "dumps"), "csv": ("writer", "DictWriter")}
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.attr in writers.get(node.value.id, ())
        or isinstance(node, ast.ImportFrom)
        and any(alias.name in writers.get(node.module, ()) for alias in node.names)
    )


def test_the_check_finds_every_format_writer():
    source = (
        "import csv, json\n"
        "json.dumps(obj)\n"
        "write = json.dump\n"
        "csv.writer(buf).writerow(row)\n"
        "csv.DictWriter(buf, fieldnames=names)\n"
        "from json import dumps as d, loads\n"
        "from csv import DictWriter, reader\n"
        "csv.reader(buf)\n"
        "json.JSONEncoder().encode(obj)\n"
        "text.dumps(obj)\n"
    )
    assert format_writers(source) == [2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_formats_writes_json_or_csv(path):
    # one writer per format: a command that wrote its own JSON would bypass
    # the sorted keys and hex integers of `formats`
    if path.name != "formats.py":
        assert format_writers(path.read_text()) == []


def test_cli_names_no_key_of_a_file_format(tmp_path, capsys):
    # every key the formats write, from one run of each command, against
    # every string constant of `cli.py`, f-string parts included
    from conic_approx.cli import main

    (tmp_path / "form.json").write_text('{"a00": 1, "a11": -2, "a22": -3}')
    d = str(tmp_path)
    argvs = [
        ["reduce", "--form", f"{d}/form.json"],
        ["pell", "--b", "2"],
        ["construct", "--b", "2", "--c", "3", "--depth", "3", "--out", d],
        ["enumerate", "--xi", f"{d}/xi.json", "--xmax", "100", "--out", d],
        ["enumerate", "--xi", f"{d}/xi.json", "--xmax", "100", "--out", d, "--format", "json"],
    ]
    keys = set()

    def collect(node):
        if isinstance(node, dict):
            keys.update(node)
            node = list(node.values())
        for child in node if isinstance(node, list) else ():
            collect(child)

    for argv in argvs:
        assert main(argv) == 0
        out = capsys.readouterr().out
        if argv[0] in ("reduce", "pell"):
            collect(json.loads(out))
    for line in (tmp_path / "sequence.jsonl").read_text().splitlines():
        collect(json.loads(line))
    for name in ("xi.json", "records.json", "report.json"):
        collect(json.loads((tmp_path / name).read_text()))
    keys.update((tmp_path / "records.csv").read_text().splitlines()[0].split(","))
    assert {"i", "y", "t", "norm_bits", "xi1", "man", "exp", "tail_bound", "X_i", "case", "m"} <= keys
    constants = {
        node.value
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert constants & keys == set()


def diagonal_forms(source: str) -> list[str]:
    """Functions of `source` (`<module>` for code outside any) that call
    `TernaryQuadraticForm(1, -x, -y)`, the diagonal form of a pair (b, c),
    by a bare name or as an attribute."""
    found = set()

    def builds(node) -> bool:
        if not isinstance(node, ast.Call) or len(node.args) != 3 or node.keywords:
            return False
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        one, b, c = node.args
        return (
            name == "TernaryQuadraticForm"
            and isinstance(one, ast.Constant) and one.value == 1
            and all(isinstance(x, ast.UnaryOp) and isinstance(x.op, ast.USub) for x in (b, c))
        )

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if builds(child):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_the_check_finds_every_diagonal_form():
    source = (
        "from conic_approx import quadform\n"
        "def enumerate_(target):\n"
        "    return TernaryQuadraticForm(1, -target.b, -target.c)\n"
        "def table(args):\n"
        "    return quadform.TernaryQuadraticForm(1, -args.b, -args.c)\n"
        "def fixed():\n"
        "    return TernaryQuadraticForm(1, -2, -3)\n"
        "def other(b, c):\n"
        "    return TernaryQuadraticForm(5, -b, -c), TernaryQuadraticForm(1, b, c)\n"
        "phi = TernaryQuadraticForm(1, -b, -c)\n"
    )
    assert diagonal_forms(source) == ["<module>", "enumerate_", "fixed", "table"]


def test_only_the_seed_and_verify_build_the_diagonal_form():
    # everything else reads a sequence's form, so a sequence built on another
    # form carries it to every reader
    found = [
        f"{path.stem}.{owner}"
        for path in [*MODULES, *sorted((REPO / "scripts").glob("*.py"))]
        for owner in diagonal_forms(path.read_text())
    ]
    assert sorted(found) == ["cli.cmd_verify", "extremal.seed_triple"]


def descriptor_classes(source: str) -> list[str]:
    """Classes of `source` that define `__get__`, and so make a descriptor."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "__get__"
            for item in node.body
        )
    )


def test_the_check_finds_every_descriptor():
    source = (
        "class cached:\n"
        "    def __init__(self, func): ...\n"
        "    def __get__(self, obj, cls=None): ...\n"
        "class Outer:\n"
        "    class inner:\n"
        "        def __get__(self, obj, cls=None): ...\n"
        "    def get(self): ...\n"
        "def __get__(obj): ...\n"
    )
    assert descriptor_classes(source) == ["cached", "inner"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_class_of_the_package_is_a_descriptor(path):
    # one per-instance cache: `functools.cached_property`, as on
    # `TernaryQuadraticForm.gram_det` and `Window.t_product`
    assert descriptor_classes(path.read_text()) == []


# the minimal-point search: every skip, rounding and record comparison is
# decided on integers
FLOAT_FREE = {
    "minpoints.py": ["_scan", "_record", "_scaled_enclosure", "enumerate_minimal"],
    "numerics.py": ["nearest_integer"],
}


def float_uses(source: str, functions: list[str]) -> dict[str, list[int]]:
    """For each of `functions` defined at the top level of `source`, the lines
    of its body that call `float`, name `math.log` or `math.exp`, or divide
    with `/` or `/=`."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in functions:
            found[node.name] = sorted(
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "float"
                or isinstance(inner, ast.Attribute)
                and inner.attr in ("log", "exp")
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "math"
                or isinstance(inner, (ast.BinOp, ast.AugAssign))
                and isinstance(inner.op, ast.Div)
            )
    return found


def test_the_check_finds_every_float():
    source = (
        "import math\n"
        "def cast(x):\n"
        "    return float(x)\n"
        "def logs(x):\n"
        "    y = math.log(x)\n"
        "    y += math.exp(x)\n"
        "    y /= 2\n"
        "    return y, x / 2\n"
        "def exact(x):\n"
        "    return x // 2, x.log(), x >> 1, divmod(x, 3)\n"
        "def unnamed(x):\n"
        "    return x / 2\n"
    )
    assert float_uses(source, ["cast", "logs", "exact"]) == {
        "cast": [3], "logs": [5, 6, 7, 8], "exact": []
    }


@pytest.mark.parametrize("module", sorted(FLOAT_FREE))
def test_the_search_path_is_float_free(module):
    functions = FLOAT_FREE[module]
    assert float_uses((PACKAGE / module).read_text(), functions) == {f: [] for f in functions}
