"""The five compiled benchmark circuits as a registry.

The netlist linter, the plan auditor, the CI ``static-analysis`` job and
the audit tests all need the same thing: "every compiled bench, by
name".  This module is that single source of truth, so adding a sixth
bench automatically widens the lint/audit surface.

Registry names (matching the smoke-benchmark sections):

* ``6t``     — :class:`~repro.sram.batched.Batched6T`'s read plan
  (4 unknowns);
* ``latch``  — the sense-amp latch (3 unknowns);
* ``column`` — a read column with leakers (``4 + 2 * n_leakers``
  unknowns, sparse assembly above the threshold);
* ``write``  — :class:`~repro.sram.batched.Batched6T`'s write plan, the
  cell plus write drivers (4 unknowns);
* ``array``  — a multi-column array slice
  (``n_cols * (2 * n_leakers + 4) + 2`` unknowns, Schur-peeled).

:func:`recompile` rebuilds a compiled bench under a different
assembly/solver choice while keeping circuit, grid and probes — the
audit matrix uses it to prove every legal combination clean.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigError
from repro.spice.compile import CompiledTransient
from repro.spice.plan import compile_cached

__all__ = ["BENCH_NAMES", "bench_compiled", "bench_solver_choices", "recompile"]

BENCH_NAMES: Tuple[str, ...] = ("6t", "latch", "column", "write", "array")


def bench_compiled(
    name: str,
    n_cols: int = 2,
    n_leakers: int = 3,
    n_steps: int = 240,
    kernel: str = "fast",
    assembly: str = "auto",
    solver: str = "auto",
) -> CompiledTransient:
    """Build the named bench's :class:`CompiledTransient`.

    The defaults are audit-sized (small leak/column counts keep the test
    matrix fast) — the smoke benchmark builds its own full-size
    versions.  ``assembly``/``solver`` apply only to the benches whose
    ``compiled()`` exposes them (column: assembly; array: both).
    """
    # Imports are local: the registry must not drag every testbench into
    # ``import repro.sram``.
    if name in ("6t", "write"):
        from repro.sram.batched import Batched6T

        engine = Batched6T(n_steps=n_steps, kernel=kernel)
        ct = engine.compiled("read" if name == "6t" else "write")
    elif name == "latch":
        from repro.sram.senseamp import SenseAmp

        ct = SenseAmp().compiled(n_steps=n_steps, kernel=kernel)
    elif name == "column":
        from repro.sram.column import ColumnConfig, ReadColumn

        ct = ReadColumn(config=ColumnConfig(n_leakers=n_leakers)).compiled(
            n_steps=n_steps, kernel=kernel, assembly=assembly
        )
    elif name == "array":
        from repro.sram.array import ArrayConfig, ArraySlice

        ct = ArraySlice(
            config=ArrayConfig(n_cols=n_cols, n_leakers=n_leakers)
        ).compiled(
            n_steps=n_steps, kernel=kernel, assembly=assembly, solver=solver
        )
    else:
        raise ConfigError(
            f"unknown bench {name!r}; expected one of {BENCH_NAMES}"
        )
    # Benches whose ``compiled()`` does not expose assembly/solver (6t,
    # latch, write; column lacks solver) get the requested combination
    # through a recompile, so the audit matrix is uniform across the
    # registry.
    if (assembly != "auto" and ct.assembly != assembly) or (
        solver != "auto" and ct._solver_choice != solver
    ):
        ct = recompile(ct, assembly=assembly, solver=solver)
    return ct


def bench_solver_choices(name: str) -> Tuple[str, ...]:
    """Solver modes legal for the named bench at the audit sizes.

    The Schur peel needs more than four unknowns (below that the fused
    path's unrolled solves already cover the whole system), so it is
    only a valid choice for the column and array benches.
    """
    if name not in BENCH_NAMES:
        raise ConfigError(
            f"unknown bench {name!r}; expected one of {BENCH_NAMES}"
        )
    if name in ("column", "array"):
        return ("auto", "schur", "blocked")
    return ("auto", "blocked")


def recompile(ct: CompiledTransient, **overrides) -> CompiledTransient:
    """Recompile ``ct`` with keyword overrides (assembly/solver/kernel...).

    Rebuilds from the original circuit, grid and probe list, so the
    result is the same plan re-derived under the new compile options —
    the cross-check the auditors run combination-by-combination.  Routes
    through the content-addressed plan cache: re-deriving a combination
    that was already compiled (anywhere in the process, or in the
    configured cache dir) restores instead of recompiling.
    """
    probes = (*ct._cross_probes, *ct._peak_probes, *ct._value_probes)
    kwargs = {
        "kernel": ct.kernel,
        "assembly": ct.assembly,
        "solver": ct._solver_choice,
        "newton_max_iter": ct.newton_max_iter,
        "newton_tol": ct.newton_tol,
        "max_step": ct.max_step,
        "min_pivot": ct.min_pivot,
        "clip": ct.clip,
    }
    kwargs.update(overrides)
    return compile_cached(ct.circuit, ct.grid, probes=probes, **kwargs)
