import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs the tier-1 suite with ``--hypothesis-profile=ci``: ten times the
# default number of examples for every property test that does not fix its
# own, and no per-example deadline, since shared runners stall at random.
settings.register_profile("ci", max_examples=1000, deadline=None)
