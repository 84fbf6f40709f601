"""README.md cites only names, options and paths that exist.

Every backticked span of README.md is checked:

- a Python name, bare, dotted or called, must resolve in a ``mixlinear``
  module or class (a class attribute, dataclass field or ``self.``
  attribute), or be a test or oracle name under ``tests/``, a builtin or
  numpy name, a command setting, a ``mixlinear`` enum value, or, spelled
  in capitals, a string the code reads (an environment variable).  A
  call's arguments must bind to the signature;
- a ``--option`` must be a setting of the ``mixlinear`` command the span
  names, or of any command, or of ``perfbench/run.py`` or
  ``tests/mutants.py`` when the span runs that script;
- a path must exist under the repository root or ``src/mixlinear/``, and a
  ``::`` test id must name classes and functions defined in its file.

Commands in the README's ``bash`` blocks are checked the same way.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil
import re
from enum import Enum

import numpy as np
import pytest

import mixlinear
from conftest import REPO_ROOT
from mixlinear.cli import SETTINGS

README = REPO_ROOT / "README.md"
SOURCE = REPO_ROOT / "src" / "mixlinear"

# spans that name no code: math symbols, and file names a run writes or reads
ALLOWED = {"e_i", "ETTh1.csv", "sweep.report"}
EXAMPLE_PREFIXES = ("runs/", "data/")

NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\((.*)\))?", re.ASCII)
PATH = re.compile(r"[\w./-]+(?:::\w+)*", re.ASCII)
FILE_SUFFIXES = (".py", ".md", ".json", ".toml", ".yml", ".csv", ".ckpt", ".report", ".txt")
OPTION = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*", re.ASCII)


def _script_options(path) -> set[str]:
    """Every ``--option`` an argparse script adds, read from its source."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {arg.value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
            for arg in node.args
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")}


def _command_options() -> dict[str, set[str]]:
    options = {command: {f"--{key}" for key in schema} | {"--config"}
               for command, schema in SETTINGS.items()}
    options[""] = set().union(*options.values())
    options["perfbench/run.py"] = _script_options(REPO_ROOT / "perfbench" / "run.py")
    options["tests/mutants.py"] = _script_options(REPO_ROOT / "tests" / "mutants.py")
    return options


def _modules() -> list:
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(mixlinear.__path__, "mixlinear.")] + [mixlinear]


def _defined_in(path) -> dict[str, set[str]]:
    """Top-level names of a Python file, each with the names defined inside it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = {child.name for child in ast.walk(node)
                                  if isinstance(child, (ast.FunctionDef, ast.ClassDef))}
    return defined


class Namespace:
    """What a README span may name."""

    def __init__(self):
        self.objects: dict[str, list] = {}
        self.classes = []
        for module in _modules():
            self.objects.setdefault(module.__name__.rsplit(".", 1)[-1], []).append(module)
            for name, value in vars(module).items():
                self.objects.setdefault(name, []).append(value)
                if inspect.isclass(value) and value.__module__.startswith("mixlinear"):
                    self.classes.append(value)
        # what a class's instances carry beyond its class attributes; a bare
        # member name may name any class's member
        self.attributes = {}
        for cls in self.classes:
            names = {name for klass in cls.__mro__ for name in getattr(klass, "__annotations__", {})}
            try:
                names |= set(re.findall(r"self\.(\w+) =", inspect.getsource(cls)))
            except (OSError, TypeError):
                pass
            self.attributes[cls] = names
            for name in dir(cls):
                self.objects.setdefault(name, []).append(getattr(cls, name))
            for name in names:
                self.objects.setdefault(name, []).append(None)
        self.tests = {}
        for path in sorted((REPO_ROOT / "tests").glob("*.py")):
            for name, inner in _defined_in(path).items():
                self.tests.setdefault(name, set()).update(inner)
        self.labels = set(SETTINGS) | {key for schema in SETTINGS.values() for key in schema}
        self.labels |= {member.value for cls in self.classes if issubclass(cls, Enum)
                        for member in cls if isinstance(member.value, str)}
        self.strings = set()
        for path in [*SOURCE.rglob("*.py"), REPO_ROOT / "tests" / "conftest.py"]:
            self.strings |= {node.value for node in ast.walk(ast.parse(path.read_text("utf-8")))
                             if isinstance(node, ast.Constant) and isinstance(node.value, str)}

    def has(self, obj, name: str) -> bool:
        if hasattr(obj, name):
            return True
        return inspect.isclass(obj) and name in self.attributes.get(obj, ())

    def resolve(self, dotted: str) -> list:
        """The objects ``dotted`` may name; empty when it names nothing."""
        first, *rest = dotted.split(".")
        if first == "mixlinear":
            candidates = [mixlinear]
        else:
            candidates = list(self.objects.get(first, []))
        for name in rest:
            candidates = [getattr(obj, name, None) for obj in candidates if self.has(obj, name)]
        return candidates

    def problem(self, dotted: str, args: str | None) -> str | None:
        if dotted in ALLOWED or len(dotted) == 1:
            return None
        if dotted in self.labels or (dotted.isupper() and dotted in self.strings):
            return None
        if "." not in dotted and any(
                (dotted in self.tests, hasattr(builtins, dotted), hasattr(np, dotted))):
            return None
        if "." in dotted and dotted.split(".", 1)[0] in self.tests:
            owner, name = dotted.split(".", 1)
            return None if name in self.tests[owner] else f"`{dotted}` is not defined in tests/"
        found = self.resolve(dotted)
        if not found:
            return f"`{dotted}` does not resolve in mixlinear"
        if args is not None and not any(_binds(obj, args) for obj in found):
            return f"`{dotted}({args})` does not match its signature"
        return None


def _binds(obj, args: str) -> bool:
    """Whether a call with these argument names binds to ``obj``'s signature."""
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return True
    positional, keywords = [], {}
    for arg in filter(None, (part.strip() for part in args.split(","))):
        key, eq, _ = arg.partition("=")
        if eq:
            keywords[key.strip()] = None
        else:
            positional.append(None)
    try:
        signature.bind(*positional, **keywords)
    except TypeError:
        # a method read off its class takes the instance first
        try:
            signature.bind(None, *positional, **keywords)
        except TypeError:
            return False
    return True


def _path_problem(span: str) -> str | None:
    if span in ALLOWED or span.startswith(EXAMPLE_PREFIXES):
        return None
    path, *ids = span.split("::")
    for root in (REPO_ROOT, SOURCE):
        if (root / path).exists():
            break
    else:
        return f"path `{path}` does not exist"
    if ids:
        defined = _defined_in(root / path)
        owner, inner = ids[0], ids[1:]
        if owner not in defined or not set(inner) <= defined[owner]:
            return f"`{span}` names a test that {path} does not define"
    return None


def _option_problems(span: str, options: dict[str, set[str]]) -> list[str]:
    if "perfbench/run.py" in span:
        scope = "perfbench/run.py"
    elif "tests/mutants.py" in span:
        scope = "tests/mutants.py"
    else:
        command = re.search(r"\bmixlinear (\w+)", span)
        scope = command.group(1) if command and command.group(1) in options else ""
    return [f"`{option}` is not an option of {scope or 'any mixlinear command'}"
            for option in OPTION.findall(span) if option not in options[scope]]


def readme_spans(text: str) -> list[tuple[str, bool]]:
    """(span, is a command): each backticked span and each line of the ``bash`` blocks."""
    spans = []
    for lang, body in re.findall(r"^```(\w*)\n(.*?)^```", text, re.M | re.S):
        if lang == "bash":
            for line in body.replace("\\\n", " ").splitlines():
                command = line.split("#", 1)[0].strip()
                if command:
                    spans.append((command, True))
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    spans += [(" ".join(span.split()), False) for span in re.findall(r"`([^`]+)`", prose)]
    return spans


def check(text: str, namespace: Namespace, options: dict[str, set[str]]) -> list[str]:
    """Every span of ``text`` that cites a name, option or path that does not exist."""
    problems = []
    for span, command in readme_spans(text):
        problems += _option_problems(span, options)
        name = NAME.fullmatch(span)
        if command or (" " in span and not name):
            problems += [_path_problem(token) for token in span.split() if token.endswith(".py")]
        elif PATH.fullmatch(span) and ("/" in span or span.endswith(FILE_SUFFIXES)):
            problems.append(_path_problem(span))
        elif name:
            problems.append(namespace.problem(*name.groups()))
    return [problem for problem in problems if problem]


@pytest.fixture(scope="module")
def namespace():
    return Namespace()


@pytest.fixture(scope="module")
def options():
    return _command_options()


def test_readme_cites_only_what_exists(namespace, options):
    assert check(README.read_text(encoding="utf-8"), namespace, options) == []


# each citation README must not make, with the problem the check reports
STALE = {
    "deleted-function": ("`_flatten_windows`", "does not resolve"),
    "missing-method": ("`WindowSet.flatten`", "does not resolve"),
    "missing-module": ("`mixlinear.model.graph`", "does not resolve"),
    "extra-argument": ("`standardize(series, splits, spec)`", "does not match its signature"),
    "unknown-keyword": ("`forward_batch(x2d, params, config, setup=None)`",
                        "does not match its signature"),
    "missing-test": ("`TestAffineMap.test_no_such_test`", "is not defined in tests/"),
    "misspelt-option": ("`mixlinear train --lookbak 16`", "not an option of train"),
    "other-command-option": ("`mixlinear gradcheck --horizon 16`", "not an option of gradcheck"),
    "bare-option": ("`--epoch`", "not an option of any mixlinear command"),
    "perfbench-option": ("`perfbench/run.py --workloads etth1-train`",
                         "not an option of perfbench/run.py"),
    "mutants-option": ("`python tests/mutants.py --dry-run`", "not an option of tests/mutants.py"),
    "missing-path": ("`model/graph.py`", "does not exist"),
    "missing-bench-file": ("`BENCH_0001.json`", "does not exist"),
    "missing-test-class": ("`tests/test_training.py::TestNoSuchClass`", "does not define"),
    "missing-script": ("`python perfbench/bench.py`", "does not exist"),
    "bash-block-option": ("```bash\nmixlinear eval --checkpoint a.ckpt \\\n    --horizon 96\n```",
                          "not an option of eval"),
}


@pytest.mark.parametrize("case", list(STALE))
def test_check_flags_what_does_not_exist(case, namespace, options):
    cited, problem = STALE[case]
    text = README.read_text(encoding="utf-8") + f"\n{cited}\n"
    problems = check(text, namespace, options)
    assert len(problems) == 1 and problem in problems[0], problems
