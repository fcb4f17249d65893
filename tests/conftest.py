import numpy as np
import pytest

from hofchain import make_context
from hofchain.weylcore import unit_draws


@pytest.fixture(scope="session")
def ctx3():
    return make_context(3, 1)


@pytest.fixture(scope="session")
def ctx5():
    return make_context(5, 1)


@pytest.fixture(scope="session")
def ctx7():
    return make_context(7, 1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240001)


def draw_site(rng):
    from hofchain import SiteParams
    return SiteParams(*unit_draws(rng, 4))


def draw_chain(rng, L):
    from hofchain import ChainParams
    return ChainParams(tuple(draw_site(rng) for _ in range(L)))


# the only report fields that change between runs with the same seed
TIMING_FIELDS = ("wall_s", "peak_rss_mb", "wall_time")


def strip_timing(report):
    """A copy of a JSON report without its timing fields, at any depth."""
    if isinstance(report, dict):
        return {k: strip_timing(v) for k, v in report.items()
                if k not in TIMING_FIELDS}
    if isinstance(report, list):
        return [strip_timing(v) for v in report]
    return report
