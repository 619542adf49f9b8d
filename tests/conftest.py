"""Hypothesis runs derandomized and without a deadline, so the suite stays deterministic."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
