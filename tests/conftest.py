"""Shared test configuration: every hypothesis test runs derandomised with no
deadline, so a run is reproducible and a slow example is not a failure.
Per-test ``settings`` set only ``max_examples``."""

from hypothesis import settings

settings.register_profile("superspin", deadline=None, derandomize=True)
settings.load_profile("superspin")
