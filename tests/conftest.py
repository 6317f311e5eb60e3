import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import bjorth as bj
from bjorth.sampling import random_nonzero  # noqa: F401  re-exported to the test modules

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


# One representative of every supported family; reused across suites.
SPACE_ZOO = [
    bj.Lp(2, 2.0),
    bj.Lp(2, 3.0),
    bj.Lp(3, 2.5),
    bj.LInf(2),
    bj.LInf(3),
    bj.DayJames(3.0, 1.5),
    bj.DayJames(1.5, 3.0),
    bj.InfSum((bj.Lp(2, 2.0), bj.LInf(1))),
    bj.InfSum((bj.DayJames(3.0, 1.5), bj.LInf(2))),
]


@pytest.fixture(scope="session")
def space_zoo():
    return SPACE_ZOO
