"""Hypothesis profiles for the property tests.

The default profile runs a fixed set of 40 examples, so the suite is the
same every time.  For a deeper search, run

    pytest --hypothesis-profile=deep tests/test_properties.py
"""

from hypothesis import settings

settings.register_profile("opconv", max_examples=40, derandomize=True,
                          deadline=None, database=None)
settings.register_profile("deep", settings.get_profile("opconv"),
                          max_examples=1000)
settings.load_profile("opconv")
