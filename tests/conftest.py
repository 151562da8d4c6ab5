"""Test configuration: Hypothesis runs deterministically.

Each property test draws its examples from a seed derived from the test
itself, and no example database is read or written, so a run never
replays a case saved by an earlier one.  Example counts stay as each
test's own `@settings` sets them.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
