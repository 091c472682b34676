"""Test-suite settings shared by every module.

Hypothesis runs under a derandomized profile, so property tests draw the same
examples on every run and a tier-1 result does not depend on a random seed.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
