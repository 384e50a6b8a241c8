"""Legacy setup shim.

All metadata lives in ``pyproject.toml``.  ``pip install -e .`` needs the
``wheel`` package to build an editable wheel; where it is missing and
cannot be fetched, ``python setup.py develop`` installs the ``src/``
package in place from the same metadata.
"""

from setuptools import setup

setup()
