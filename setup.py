"""Setuptools entry point.

All metadata lives in ``pyproject.toml``.  This shim only keeps the legacy
``python setup.py develop`` route working for offline installs where the
``wheel`` package (needed by ``pip install .``) is not available.
"""

from setuptools import setup

setup()
