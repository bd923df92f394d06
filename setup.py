"""Package metadata.

Kept in classic setup.py form (rather than pyproject.toml) because the
target environment ships setuptools without the ``wheel`` package, and
PEP 660 editable installs need ``bdist_wheel``; the legacy path used for
``pip install -e .`` does not.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Gradient importance sampling for high-sigma SRAM dynamic "
        "characteristic extraction (DATE 2018 reproduction)"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The sharded engine spawns per-shard RNG streams via
    # numpy.random.Generator.spawn, which appeared in numpy 1.25.
    install_requires=["numpy>=1.25", "scipy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={
        "console_scripts": [
            # One benchmark entry point (also `python -m repro.bench`).
            "repro-bench=repro.bench.cli:main",
        ],
    },
)
