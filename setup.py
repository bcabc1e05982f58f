"""Legacy build shim (the environment's setuptools lacks bdist_wheel)."""

import re
from pathlib import Path

from setuptools import find_packages, setup

# One version: the package's own, which also keys the result cache.
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'Measuring the Role of Greylisting and Nolisting "
        "in Fighting Spam' (DSN 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
