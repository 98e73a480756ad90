"""Test-only reference implementations (scalar oracles).

Each module here keeps the straightforward implementation that a fast
path in ``src/`` replaced, so equivalence tests can compare the two
exactly.  Nothing in ``src/`` imports from this package.
"""
