"""Build script: compiles the kernel extension from hand-written C.

The one extension holds the depth-first walk enumerator, the bridge
enumerator with the bridge counts and the stickbreak sweep that run
inside it, the strip transfer-operator builder, the float spectral
radius's power iteration, the per-walk facts (self-avoidance, class,
renewal and diamond points) and the products, sums and normal form of
the exact field elements (``Cyclo48``, in ``__int128`` below 2^60 and
on Python ints beyond).  It compiles with ``-Wextra`` (less the
unused-parameter warning every C function's ``self`` would raise), so
sign-compare and missing-initializer warnings show up in the build log.

The package requires the extension: importing it from a source checkout
that was never built raises ImportError, and a build that cannot compile
the kernel fails instead of skipping it.  In a checkout, build in place
with ``python setup.py build_ext --inplace``.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("hexsaw._dfs", ["src/hexsaw/_dfs.c"],
                             extra_compile_args=["-Wextra", "-Wno-unused-parameter"])])
