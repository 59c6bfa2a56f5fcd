"""Setuptools entry point; all other metadata is in pyproject.toml.

Builds one optional C extension, ``clawlab._augment`` (compiled canonical
labelling and augmentation, the per-graph predicates max clique, DSATUR
colouring, the induced-cycle grower and the odd-hole search, and the
graph6 encoder, see ``src/clawlab/_augment.c``), with the system C
compiler.
``python setup.py build_ext --inplace``, the set-up step of
``perfbench/run.py`` and of the test session, puts it next to the sources.
The extension is optional: when it does not compile, the build still
succeeds and ``clawlab.kernels`` stays on its pure-Python backend.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("clawlab._augment", sources=["src/clawlab/_augment.c"], optional=True)])
