"""Helpers shared by the test modules."""

import dataclasses

import numpy as np

from mmvsolve import RecoveryReport


def assert_same_report(got, want):
    """Assert that two reports agree bit for bit in every field but the
    timing-dependent ``wall_time``."""
    for spec in dataclasses.fields(RecoveryReport):
        if spec.name == "wall_time":
            continue
        a, b = getattr(got, spec.name), getattr(want, spec.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype, spec.name
            assert a.shape == b.shape and np.array_equal(a, b), spec.name
        else:
            assert type(a) is type(b) and a == b, spec.name
