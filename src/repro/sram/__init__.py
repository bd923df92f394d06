"""SRAM bitcell circuits, dynamic-characteristic testbenches and metrics.

* :mod:`repro.sram.cell` — parametric 6T bitcell netlist builder.
* :mod:`repro.sram.testbench` — read / write / hold testbenches on the
  general MNA engine, exposing scalar dynamic metrics as functions of a
  u-space variation vector.
* :mod:`repro.sram.metrics` — measurement + smooth-penalty extension
  logic shared by the testbenches.
* :mod:`repro.sram.statics` — static (DC) margins: hold/read SNM via
  butterfly curves.
* :mod:`repro.sram.batched` — vectorised fixed-topology 6T transient
  engine used for golden Monte Carlo and large sampling budgets; its
  read and write plans are compiled by :mod:`repro.spice.compile`.
* :mod:`repro.sram.array` — multi-column array slice (shared-bitline
  mux + one sense amp) compiled through the batched circuit compiler
  with the per-column Schur peel.
"""

from repro.sram.array import ArrayConfig, ArraySlice
from repro.sram.cell import CellDesign, build_cell
from repro.sram.column import ColumnConfig, ReadColumn
from repro.sram.senseamp import SenseAmp, SenseAmpDesign
from repro.sram.testbench import ReadTestbench, WriteTestbench
from repro.sram.batched import Batched6T
from repro.sram.statics import butterfly_snm

__all__ = [
    "ArrayConfig",
    "ArraySlice",
    "CellDesign",
    "build_cell",
    "ColumnConfig",
    "ReadColumn",
    "SenseAmp",
    "SenseAmpDesign",
    "ReadTestbench",
    "WriteTestbench",
    "Batched6T",
    "butterfly_snm",
]
