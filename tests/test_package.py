import pytest

import rscycle

REMOVED = ["Region", "region_of", "signaling_fraction", "GapReport", "gap_report",
           "find_fixed_configuration"]


def test_public_surface_is_all():
    # every export resolves, a star import binds exactly __all__, and no deleted name returns
    assert len(set(rscycle.__all__)) == len(rscycle.__all__)
    for name in rscycle.__all__:
        assert getattr(rscycle, name) is not None
    namespace = {}
    exec("from rscycle import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rscycle.__all__)
    for name in REMOVED:
        with pytest.raises(ImportError):
            exec(f"from rscycle import {name}", {})
