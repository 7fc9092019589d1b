"""Build hook for the optional compiled series kernel.

The package is fully functional without the extension (the pure-Python
kernel, which returns the same bits, is selected at import time), so a
missing compiler only costs speed, not correctness.

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("thetakit._core", ["src/thetakit/_core.c"], optional=True,
              extra_compile_args=["-ffp-contract=off"]),
])
