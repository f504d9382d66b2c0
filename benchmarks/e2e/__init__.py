"""Measured end-to-end training benchmark (full / NeSSA / CRAIG).

Everything here is *measured* on the box that runs it.  The modelled
paper figures (``benchmarks/test_*.py`` + ``benchmarks/out/``) and the
micro-benches (``BENCH_*.json``) are different things and are never
mixed into this benchmark's output.  See README.md in this directory.
"""
