"""Every module under ``src/repro`` is reached from an experiment root.

A static import walk (AST only: nothing is imported) starts at the roots
— ``src/repro/cli.py`` with its handler-local imports, ``bench/*.py``,
``benchmarks/*.py`` and ``examples/*.py`` — and follows every ``repro``
import of every file it reaches.  ``from repro.pkg import Name`` goes
through the package ``__init__``'s own import of ``Name`` to the module
that defines it; ``import repro.pkg`` reaches the ``__init__`` and
everything it imports.  A module no root reaches is code no experiment
runs: delete it with its tests, or wire it into the experiment that
should use it.
"""

import ast
from pathlib import Path
from typing import Iterator, Optional

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOTS = [SRC / "repro" / "cli.py"] + [
    path for folder in ("bench", "benchmarks", "examples")
    for path in sorted((REPO / folder).glob("*.py"))]


def _module_path(module: str) -> Optional[Path]:
    base = SRC.joinpath(*module.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _repro_imports(path: Path) -> Iterator[tuple[str, Optional[str]]]:
    """``(module, name)`` per repro import anywhere in the file; ``name``
    is None for a plain ``import module``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            pairs = [(node.module or "", alias.name) for alias in node.names]
        else:
            continue
        for module, name in pairs:
            if module == "repro" or module.startswith("repro."):
                yield module, name


class _Walk:
    def __init__(self) -> None:
        self.reached: set[Path] = set()
        self._names: set[tuple[str, str]] = set()

    def file(self, path: Path) -> None:
        if path in self.reached:
            return
        self.reached.add(path)
        for module, name in _repro_imports(path):
            if name is not None:
                self.name(module, name)
            elif (target := _module_path(module)) is not None:
                self.file(target)

    def name(self, module: str, name: str) -> None:
        if (module, name) in self._names:
            return
        self._names.add((module, name))
        submodule = _module_path(f"{module}.{name}")
        path = _module_path(module)
        if submodule is not None:
            self.file(submodule)
        elif path is None:
            return
        elif path.name != "__init__.py" or name == "*":
            self.file(path)
        else:
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        if (alias.asname or alias.name) == name:
                            self.name(node.module, alias.name)
                            return
            self.file(path)  # defined in the __init__ itself


def test_every_src_module_is_reached_from_a_root():
    walk = _Walk()
    for root in ROOTS:
        walk.file(root)
    modules = {path for path in (SRC / "repro").rglob("*.py")
               if path.name not in ("__init__.py", "__main__.py")}
    unreached = sorted(str(path.relative_to(SRC / "repro"))
                       for path in modules - walk.reached)
    assert not unreached, (
        f"no repro command, bench, benchmarks or examples file reaches "
        f"{len(unreached)} module(s): {', '.join(unreached)}")
