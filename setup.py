"""Packaging for the Swift reproduction (Zhong et al., PPoPP 2023)."""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="swift-repro",
    version=VERSION,
    description=(
        "Reproduction of 'Swift: Expedited Failure Recovery for "
        "Large-Scale DNN Training' (PPoPP 2023), plus a multi-job "
        "cluster scheduler built on its recovery mechanisms"
    ),
    author="paper-repo-growth",
    packages=find_packages("src"),
    package_dir={"": "src"},
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={"test": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
