from contextlib import contextmanager
from unittest import mock

import hypothesis

import numpy as np

from symshadow import systems

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("default")


def orbit_entries(q, points, lengths):
    """The span decoder: ((i, j, q), orbit) for each orbit of a (q, points,
    lengths) span of ``ToralAutomorphism.rational_orbit_spans``, whose
    ``lengths`` cut the integer ``points``: orbit lists the pairs (u, v) of
    its span, (i, j) its first."""
    pairs = list(zip(*points.T.tolist()))
    ends = np.cumsum(lengths).tolist()
    return [(pairs[e - n] + (q,), pairs[e - n:e]) for e, n in zip(ends, lengths.tolist())]


def rational_orbit_lattices(system, max_period, max_denominator):
    """(q, points, orbits) per (q, points, lengths) of ``system.rational_orbit_spans``:
    ``orbits`` lists ((i, j, q), orbit) for its orbits (``orbit_entries``),
    each orbit the integer pairs (u, v) of its points (u/q, v/q) from (i, j)."""
    for q, points, lengths in system.rational_orbit_spans(max_period, max_denominator):
        yield q, points, orbit_entries(q, points, lengths)


@contextmanager
def index_builds():
    """The reference sets that systems index while the block runs, in order:
    the index builders of the planar systems (a method) and the shift systems
    (the key index class), wrapped to list them."""
    builds = []

    def listing(build):
        def listed(*args):  # (system, points) for a method, (points,) for the class
            builds.append(args[-1])
            return build(*args)
        return listed

    with mock.patch.object(systems._PlanarSystem, "_index_reference",
                           listing(systems._PlanarSystem._index_reference)), \
            mock.patch.object(systems.SftSystem, "_index_reference",
                              staticmethod(listing(systems.SftSystem._index_reference))):
        yield builds
