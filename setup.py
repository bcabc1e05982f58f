"""Legacy build shim (the environment's setuptools lacks bdist_wheel)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Measuring the Role of Greylisting and Nolisting "
        "in Fighting Spam' (DSN 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
