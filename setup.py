"""Package metadata and optional-dependency extras.

The install is NumPy-only: ``install_requires`` is the whole runtime
dependency set.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("SmartDPSS reproduction: cost-minimizing multi-source "
                 "datacenter power supply (ICDCS 2013)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "test": ["pytest>=7", "hypothesis>=6"],
        # Static-analysis toolchain: `make lint` needs nothing beyond
        # the stdlib (repro.lint is self-contained); mypy backs the
        # optional `make typecheck` target, which skips when absent.
        "dev": ["mypy>=1.5"],
    },
)
