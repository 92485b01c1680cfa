from setuptools import setup
from setuptools.extension import Extension

# The compiled search kernel is an accelerator only; conjtri.core falls back
# to the pure-Python twin when the extension is unavailable.
setup(
    ext_modules=[
        Extension("conjtri._core", ["src/conjtri/_core.c"], extra_compile_args=["-O2"])
    ]
)
