"""tools/repro_lint.py: the source tree is clean; the codes fire on bait.

The lint is a gating CI step, so the clean-tree test is the same
assertion CI makes; the bait tests pin each code's detection logic
(including the sanctioned escapes: ``default_rng``, ``sorted(set)``,
``NotImplementedError``, ``argparse.ArgumentTypeError``).
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "repro_lint.py"

sys.path.insert(0, str(REPO / "tools"))
from repro_lint import _is_strict, lint_file  # noqa: E402


def _lint_source(tmp_path, source, strict):
    path = tmp_path / "mod.py"
    path.write_text(source)
    return [(code, line) for (_p, line, code, _m) in lint_file(path, strict=strict)]


class TestCleanTree:
    def test_src_repro_is_clean(self):
        proc = subprocess.run(
            [sys.executable, str(LINT), "src/repro"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_tools_dir_is_clean_too(self):
        proc = subprocess.run(
            [sys.executable, str(LINT), "tools"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestR001GlobalRandom:
    def test_flags_global_draws(self, tmp_path):
        found = _lint_source(
            tmp_path,
            "import numpy as np\nx = np.random.rand(3)\nnp.random.seed(0)\n",
            strict=False,
        )
        assert [c for c, _l in found] == ["R001", "R001"]

    def test_allows_constructors(self, tmp_path):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "ss = np.random.SeedSequence(1)\n"
            "g = np.random.Generator(np.random.PCG64(ss))\n"
        )
        assert _lint_source(tmp_path, src, strict=True) == []


class TestR002SetIteration:
    @pytest.mark.parametrize(
        "expr", ["{1, 2}", "set(xs)", "frozenset(xs)", "{x for x in xs}"]
    )
    def test_flags_unordered_iteration(self, tmp_path, expr):
        src = f"xs = [1, 2]\nfor v in {expr}:\n    pass\n"
        assert ("R002", 2) in _lint_source(tmp_path, src, strict=True)

    def test_allows_sorted_wrap(self, tmp_path):
        src = "xs = [1, 2]\nfor v in sorted({x for x in xs}):\n    pass\n"
        assert _lint_source(tmp_path, src, strict=True) == []

    def test_comprehension_over_set_flagged(self, tmp_path):
        src = "ys = [v for v in {1, 2}]\n"
        assert [c for c, _l in _lint_source(tmp_path, src, strict=True)] == ["R002"]

    def test_not_enforced_outside_strict_dirs(self, tmp_path):
        src = "for v in {1, 2}:\n    pass\n"
        assert _lint_source(tmp_path, src, strict=False) == []


class TestR003BareAssert:
    def test_flags_assert_in_strict_dirs(self, tmp_path):
        found = _lint_source(tmp_path, "assert 1 == 1\n", strict=True)
        assert [c for c, _l in found] == ["R003"]

    def test_allowed_outside(self, tmp_path):
        assert _lint_source(tmp_path, "assert 1 == 1\n", strict=False) == []


class TestR004BuiltinRaise:
    @pytest.mark.parametrize(
        "exc", ["ValueError", "TypeError", "KeyError", "AssertionError",
                "RuntimeError", "Exception"]
    )
    def test_flags_builtin_raises(self, tmp_path, exc):
        found = _lint_source(tmp_path, f"raise {exc}('x')\n", strict=False)
        assert [c for c, _l in found] == ["R004"]

    def test_allows_typed_and_sanctioned(self, tmp_path):
        src = (
            "import argparse\n"
            "from repro.errors import ConfigError\n"
            "def f():\n"
            "    raise ConfigError('x')\n"
            "def g():\n"
            "    raise NotImplementedError\n"
            "def h():\n"
            "    raise argparse.ArgumentTypeError('x')\n"
        )
        assert _lint_source(tmp_path, src, strict=False) == []

    def test_bare_reraise_allowed(self, tmp_path):
        src = "try:\n    pass\nexcept Exception:\n    raise\n"
        assert _lint_source(tmp_path, src, strict=False) == []


class TestScoping:
    def test_strict_dirs(self):
        assert _is_strict(Path("src/repro/spice/compile.py"))
        assert _is_strict(Path("src/repro/engine/sharding.py"))
        assert _is_strict(Path("src/repro/sram/column.py"))
        assert not _is_strict(Path("src/repro/highsigma/gis.py"))
        assert not _is_strict(Path("src/repro/cli.py"))
