import sys
from pathlib import Path

from hypothesis import HealthCheck, Phase, settings

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
# tests/mutants.py asks only whether a test fails, so it skips the shrinking
# of a failing example, which can take a minute per mutant
settings.register_profile(
    "mutants",
    parent=settings.get_profile("default"),
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
