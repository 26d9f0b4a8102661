"""Build script: compiles the kernel extension from hand-written C.

The one extension holds the depth-first walk enumerator and the strip
transfer-operator builder.

A source checkout that was never built still runs (a pure-Python kernel
with the same interface is selected at import time), but a build that
cannot compile the kernel fails instead of skipping it.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("hexsaw._dfs", ["src/hexsaw/_dfs.c"])])
