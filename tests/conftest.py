"""Shared fixtures: reference parameter sets and sampling helpers."""

import numpy as np
import pytest

from axisym.catalog import SystemParams
from axisym.families import IntegrableFamily

# Parameter sets used by the bundled reference trajectories, plus
# representative choices for the systems that have no reference run.
PARAMS = {
    "linear_min": SystemParams(u1=1.0, bz=2.0),
    "linear_max": SystemParams(u1=1.0, bz=2.0),
    "op_min": SystemParams(u1=2.0, u2=1.5, u3=-1.0, bz=7.0, bp=4.0, bs=2.0),
    "cp_min_bq": SystemParams(u1=10.0, u2=1.5, u3=1.0, bz=2.0, bq=4.0),
    "cp_min_bz": SystemParams(u1=1.0, u2=1.5, u3=0.5, bz=4.0),
    "cp_min_bl": SystemParams(u1=1.0, u2=1.5, u3=0.5, bl=2.0),
    "max5": SystemParams(u2=1.5, bz=2.0, n=3, m=2),
    "max6": SystemParams(bz=3.0, n=1, m=2),
}

SYSTEM_OF = {
    "linear_min": "linear_min",
    "linear_max": "linear_max",
    "op_min": "op_min",
    "cp_min_bq": "cp_min",
    "cp_min_bz": "cp_min",
    "cp_min_bl": "cp_min",
    "max5": "max5",
    "max6": "max6",
}

# The chart families of the family and verification tests: kind and scale.
FAMILY_ARGS = {
    "family_circular_parabolic": ("circular_parabolic", None),
    "family_oblate": ("oblate", 1.3),
    "family_prolate": ("prolate", 1.3),
}

REFERENCE_IC = np.array([1.0, -1.0, 1.0, 1.0, 0.0, 0.0])


def chart_family(kind, a):
    """A chart family with smooth, non-trivial structure functions."""
    return IntegrableFamily(
        kind=kind,
        beta1=lambda e: 0.8 + 0.3 * e * e,
        beta2=lambda x: 1.1 - 0.2 * x * x,
        rho1=lambda e: 0.5 * e,
        rho2=lambda x: 0.4 * x * x,
        a=a,
    )


@pytest.fixture
def reference_ic():
    return REFERENCE_IC.copy()
