"""Hypothesis profiles for the test suite.

``fixed`` is loaded by default: each property test draws the same examples
on every run (seeded from the test itself), so the suite's verdicts and its
time compare across commits.  Every ``max_examples`` stays as the test sets
it.  ``randomized`` draws fresh examples on each run, to keep exploring:

    python -m pytest --hypothesis-profile randomized
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("fixed")
