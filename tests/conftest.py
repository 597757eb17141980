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


def csv_without_wall_time(text):
    """The lines of a sweep CSV with the wall_time_s field of each result
    row removed: what two runs of one sweep config must agree on."""
    lines = []
    for line in text.splitlines():
        fields = line.split(",")
        if len(fields) == 14 and not line.startswith("solver,"):
            del fields[12]  # wall_time_s
        lines.append(",".join(fields))
    return lines
