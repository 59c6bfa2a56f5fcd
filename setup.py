"""Setuptools entry point; all metadata is in pyproject.toml.

The package is pure Python, so ``setup.py build_ext --inplace`` (the set-up
step of ``perfbench/run.py``) succeeds and builds nothing.
"""

from setuptools import setup

setup()
