"""Hypothesis profiles.

Tier-1 runs every property test at hypothesis' default count, or at the
count the test pins. ``--hypothesis-profile=deep -m deep`` runs the tests
marked ``deep``, among them the distance-oracle tests, at 1,500 examples
each.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1500)
