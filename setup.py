"""Setuptools entry point; all other metadata is in pyproject.toml.

Builds one optional C extension, ``clawlab._augment``, with the system C
compiler.  Its eight entries (see ``src/clawlab/_augment.c``) are
``canon_form`` (canonical labelling), ``augment`` (one level of canonical
augmentation), the per-graph predicates ``max_clique``, ``color_with``
(DSATUR colouring), ``induced_cycles`` and ``odd_hole``, the graph6
encoder ``graph6`` and ``flag_level``, the per-level screen of the
perfect-class and Observation 2 checks.
``python setup.py build_ext --inplace``, the set-up step of
``perfbench/run.py`` and of the test session, puts it next to the sources.
The extension is optional: when it does not compile, the build still
succeeds and ``clawlab.kernels`` stays on its pure-Python backend.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("clawlab._augment", sources=["src/clawlab/_augment.c"], optional=True)])
