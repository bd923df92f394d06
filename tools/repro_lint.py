#!/usr/bin/env python
"""AST lint for the project's known determinism and diagnostics hazards.

Run from the repo root (CI runs it as a gating ``static-analysis`` step)::

    python tools/repro_lint.py [paths...]

With no arguments it lints ``src/repro``.  Exit status 1 when any
finding is reported.  Codes:

* **R001** — call through the *global* ``np.random`` state
  (``np.random.rand``, ``np.random.seed``, ...) anywhere in the
  library.  Global-state draws are invisible to the shard plan and
  break the bit-reproducibility contract; constructors
  (``default_rng``, ``SeedSequence``, ``Generator``, ...) are the
  sanctioned API and stay allowed.
* **R002** — iteration over an unordered ``set``/``frozenset``
  expression in ``engine/``, ``spice/`` or ``sram/`` (stamp and merge
  paths, and the netlists whose element order fixes the compiled device
  order).  Set iteration order is salted per process; wrap in
  ``sorted(...)``.
* **R003** — bare ``assert`` in ``engine/``, ``spice/`` or ``sram/``.
  Asserts vanish under ``python -O`` and carry no diagnostic code; raise
  a typed :mod:`repro.errors` exception instead.
* **R004** — ``raise`` of a builtin exception (``ValueError``,
  ``TypeError``, ``KeyError``, ``IndexError``, ``AssertionError``,
  ``RuntimeError``, ``Exception``) anywhere in the library.  Public
  entry points must raise the typed :mod:`repro.errors` hierarchy so
  callers can catch by family and read a diagnostic code.
  ``NotImplementedError`` (abstract hooks) and
  ``argparse.ArgumentTypeError`` (the CLI's usage-error channel) are
  allowed.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

# Directories (relative to src/repro) whose stamp/merge paths and
# netlist builders get the stricter R002/R003 treatment.
STRICT_DIRS = ("engine", "spice", "sram")

# np.random attributes that are constructors/types, not global-state draws.
RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "Philox",
    "RandomState",
}

BUILTIN_RAISES = {
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "AssertionError",
    "RuntimeError",
    "Exception",
}

Finding = Tuple[Path, int, str, str]


def _is_np_random(node: ast.AST) -> bool:
    """True for ``np.random`` / ``numpy.random`` attribute chains."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _is_unordered_set(node: ast.AST) -> bool:
    """True for an expression that evaluates to a salted-order set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _iter_targets(tree: ast.AST) -> Iterator[Tuple[int, ast.AST]]:
    """(lineno, iterable-expression) of every for/comprehension loop."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.lineno, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield node.lineno, gen.iter


def lint_file(path: Path, strict: bool) -> List[Finding]:
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, "R000", f"syntax error: {exc.msg}")]

    findings: List[Finding] = []

    for node in ast.walk(tree):
        # R001: np.random.<draw> through the global state.
        if (
            isinstance(node, ast.Attribute)
            and _is_np_random(node.value)
            and node.attr not in RANDOM_ALLOWED
        ):
            findings.append(
                (
                    path, node.lineno, "R001",
                    f"global-state np.random.{node.attr} — pass an "
                    "np.random.Generator through the shard plan instead",
                )
            )

        # R003: bare assert in stamp/merge code.
        if strict and isinstance(node, ast.Assert):
            findings.append(
                (
                    path, node.lineno, "R003",
                    "bare assert — raise a typed repro.errors exception "
                    "(asserts vanish under python -O)",
                )
            )

        # R004: builtin raises.
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in BUILTIN_RAISES:
                findings.append(
                    (
                        path, node.lineno, "R004",
                        f"raise {name} — use the typed repro.errors "
                        "hierarchy so callers get a diagnostic code",
                    )
                )

    # R002: iterating an unordered set expression.
    if strict:
        for lineno, it in _iter_targets(tree):
            if _is_unordered_set(it):
                findings.append(
                    (
                        path, lineno, "R002",
                        "iteration over an unordered set — wrap in "
                        "sorted(...) so stamp/merge order is deterministic",
                    )
                )

    return findings


def _is_strict(path: Path) -> bool:
    parts = path.parts
    return any(
        d in parts[i + 1:]
        for i, part in enumerate(parts)
        if part == "repro"
        for d in STRICT_DIRS
    )


def main(argv: List[str]) -> int:
    roots = [Path(a) for a in argv] or [Path("src/repro")]
    files: List[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        else:
            files.extend(sorted(root.rglob("*.py")))

    all_findings: List[Finding] = []
    for path in files:
        all_findings.extend(lint_file(path, strict=_is_strict(path)))

    for path, lineno, code, message in all_findings:
        print(f"{path}:{lineno}: {code} {message}")
    if all_findings:
        print(f"repro_lint: {len(all_findings)} finding(s)")
        return 1
    print(f"repro_lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
