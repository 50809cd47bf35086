import warnings

import pytest

# When a test fails, hypothesis imports its patch writer, and with it libcst,
# whose use of mypy_extensions.TypedDict raises a DeprecationWarning. Under
# ``-W error`` that warning escapes pytest's report hook as an INTERNALERROR
# in place of the failure report, so the module is imported once here with
# that warning ignored. Without libcst there is nothing to import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from vslsim import FundamentalDiagram, NetworkGeometry


@pytest.fixture
def fd() -> FundamentalDiagram:
    """Reference triangle used throughout: 7200/4800 veh/h capacities,
    100 km/h free flow, 30/15 km/h wave speeds, 10% capacity drop."""
    return FundamentalDiagram(
        capacity=7200.0,
        downstream_capacity=4800.0,
        free_flow_speed=100.0,
        backprop_speed=30.0,
        outflow_backprop_speed=15.0,
        jam_density=312.0,
        outflow_jam_density=552.0,
        capacity_drop_factor=0.1,
    )


@pytest.fixture
def geometry() -> NetworkGeometry:
    return NetworkGeometry(
        num_sections=6,
        section_length=1.6,
        upstream_zone_length=4.8,
    )
