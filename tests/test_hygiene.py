"""Source hygiene: every name imported in the package is used."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "selberg3"
MODULES = sorted(SRC.glob("*.py"))

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class _Scope:
    """The module or one function: what it binds, imports and reads."""

    def __init__(self, node, parent):
        self.parent = parent
        self.bound, self.globals = set(), set()
        self.imports = {}        # name -> line of the import binding it
        self.reads = []
        self.children = []
        if isinstance(node, FUNCTIONS):
            a = node.args
            self.bound.update(arg.arg for arg in
                              a.posonlyargs + a.args + a.kwonlyargs
                              + [a.vararg, a.kwarg] if arg)
            body = node.body if isinstance(node.body, list) else [node.body]
        else:
            body = node.body
        nonlocal_names = set()
        stack = list(body)
        while stack:
            n = stack.pop()
            if isinstance(n, FUNCTIONS):
                self.children.append(_Scope(n, self))
                # decorators, defaults and annotations run in this scope
                stack.extend(d for d in n.args.defaults + n.args.kw_defaults if d)
                if not isinstance(n, ast.Lambda):
                    self.bound.add(n.name)
                    stack.extend(n.decorator_list)
                    stack.extend(arg.annotation for arg in ast.walk(n.args)
                                 if isinstance(arg, ast.arg) and arg.annotation)
                    if n.returns:
                        stack.append(n.returns)
                continue
            if isinstance(n, ast.Import):
                for alias in n.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = n.lineno
            elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
                for alias in n.names:
                    self.imports[alias.asname or alias.name] = n.lineno
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                self.reads.append(n.id)
            elif isinstance(n, ast.Name):
                self.bound.add(n.id)
            elif isinstance(n, ast.ClassDef):
                self.bound.add(n.name)
            elif isinstance(n, ast.ExceptHandler) and n.name:
                self.bound.add(n.name)
            elif isinstance(n, ast.Global):
                self.globals.update(n.names)
            elif isinstance(n, ast.Nonlocal):
                nonlocal_names.update(n.names)
            elif (isinstance(n, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in n.targets)):
                self.reads.extend(ast.literal_eval(n.value))
            stack.extend(ast.iter_child_nodes(n))
        self.bound |= set(self.imports)
        self.bound -= self.globals | nonlocal_names

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def unused_imports(source: str) -> list:
    """(line, name) of each import whose binding is never read.

    Each read is resolved as Python does: to the innermost enclosing
    function that binds the name, else to the module.  So an import inside
    one function is not kept alive by a read of the same name in another.
    Class bodies count as part of their enclosing scope; names in __all__
    count as read, and __future__ imports are skipped.
    """
    module = _Scope(ast.parse(source), None)
    used = set()
    for scope in module.walk():
        for name in scope.reads:
            owner = module if name in scope.globals else scope
            while owner.parent is not None and name not in owner.bound:
                owner = owner.parent
            used.add((id(owner), name))
    return sorted((line, name) for scope in module.walk()
                  for name, line in scope.imports.items()
                  if (id(scope), name) not in used)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom typing import Optional\n"
              "__all__ = ['Optional']\nx = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os")]


def test_detector_resolves_function_local_imports():
    source = ("import sys\n"
              "def reads():\n"
              "    import os\n"
              "    return os.sep\n"
              "def ignores():\n"
              "    import os\n"
              "    return 1\n"
              "def closure():\n"
              "    from math import pi\n"
              "    return lambda: pi + len(sys.argv)\n")
    assert unused_imports(source) == [(6, "os")]


def test_detector_local_binding_shadows_module_import():
    source = ("import os\n"
              "def f(os):\n"
              "    return os\n")
    assert unused_imports(source) == [(1, "os")]
