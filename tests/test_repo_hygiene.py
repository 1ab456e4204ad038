"""Repository hygiene: no tracked bytecode, no unused imports in ``src/``.

A ``.pyc`` (or anything under ``__pycache__``) that slips into the
index shadows source edits in subtle ways and bloats every clone.  A
module-level import nothing reads makes ``import repro`` load a name
for nobody.  These tier-1 tests keep both out permanently.
"""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files() -> list[str]:
    proc = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        pytest.skip(f"git ls-files failed: {proc.stderr.strip()}")
    return proc.stdout.splitlines()


def test_no_bytecode_tracked() -> None:
    if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    offenders = [
        path
        for path in _tracked_files()
        if path.endswith(".pyc") or "__pycache__" in path.split("/")
    ]
    assert not offenders, (
        "compiled bytecode is tracked by git (run 'git rm --cached' on "
        f"these and gitignore them): {offenders}"
    )


def _unused_imports(path: Path) -> list[str]:
    """Module-level imports of ``path`` whose name nothing in the
    module reads, that ``__all__`` does not export and that carry no
    ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    found = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = (alias.asname or alias.name).split(".")[0]
            marked = {lines[stmt.lineno - 1], lines[alias.lineno - 1]}
            if name in used or any("noqa: F401" in line for line in marked):
                continue
            found.append(f"{path.relative_to(REPO_ROOT)}:{alias.lineno}: {name}")
    return found


def test_no_unused_imports_in_src() -> None:
    offenders = [
        hit
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if path.name != "__init__.py"
        for hit in _unused_imports(path)
    ]
    assert not offenders, (
        "module-level imports nothing uses (remove them, export them in "
        f"__all__, or mark a deliberate re-export '# noqa: F401'): {offenders}"
    )
