from contextlib import contextmanager
from unittest import mock

import hypothesis

from symshadow import systems
from symshadow.measures import _orbit_entries

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("default")


def rational_orbit_lattices(system, max_period, max_denominator):
    """(q, points, orbits) per (q, points, lengths) of ``system.rational_orbit_spans``:
    ``orbits`` lists ((i, j, q), orbit) for its orbits (``measures._orbit_entries``),
    each orbit the integer pairs (u, v) of its points (u/q, v/q) from (i, j)."""
    for q, points, lengths in system.rational_orbit_spans(max_period, max_denominator):
        yield q, points, _orbit_entries(q, points, lengths)


@contextmanager
def index_builds():
    """The reference sets that systems index while the block runs, in order:
    the index builders of the planar and shift systems, wrapped to list them."""
    builds = []

    def listing(build):
        def listed(points):
            builds.append(points)
            return build(points)
        return staticmethod(listed)

    with mock.patch.object(systems._PlanarSystem, "_index_reference",
                           listing(systems._PlanarSystem._index_reference)), \
            mock.patch.object(systems.SftSystem, "_index_reference",
                              listing(systems.SftSystem._index_reference)):
        yield builds
