"""Mechanical service-time model for a mid-1990s IDE drive.

Service time = seek + rotational latency + media transfer + fixed controller
overhead.  The seek curve is the standard piecewise model: a short-seek
square-root region blending into a linear long-seek region, calibrated so
that the average random seek matches the nominal figure (~14 ms for the
drives in the Beowulf nodes).

The per-request arithmetic is table-driven: a :class:`_ServiceTables`
pair of numpy lookup tables (seek time by cylinder distance, media data
rate by cylinder) is built lazily once per model and cached on the frozen
dataclass, so the hot :meth:`DiskServiceModel.service_time` path is two
array indexes and three adds instead of a sqrt, a branch, and a zone
interpolation per request.  Table entries are built with the same
operation order as the scalar formulas, so results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.disk.geometry import DiskGeometry
from repro.disk.request import IORequest


class _ServiceTables:
    """Precomputed per-model lookup tables (built once, ~16 KB each).

    ``seek[d]`` is the seek time for a ``d``-cylinder move (``seek[0] ==
    0.0``); ``rate[c]`` is the media byte rate at cylinder ``c`` (varies
    per cylinder under zoned-bit recording, constant otherwise).
    """

    __slots__ = ("seek", "rate", "seek_scalar", "rate_scalar",
                 "rotation_time", "sectors_per_cylinder")

    def __init__(self, model: "DiskServiceModel"):
        geo = model.geometry
        rot = model.rotation_time
        # same association as the scalar formula: settle + coeff*sqrt(d)
        # + coeff*d, elementwise — keeps lookups bit-identical to it
        d = np.arange(geo.cylinders, dtype=np.float64)
        seek = (model.seek_settle
                + model.seek_sqrt_coeff * np.sqrt(d)
                + model.seek_linear_coeff * d)
        seek[0] = 0.0
        self.seek = seek
        self.rate = geo.sectors_per_track_table() * 512 / rot
        # plain-list mirrors for the scalar path: indexing a Python list
        # yields a Python float, keeping the per-request arithmetic off
        # numpy's scalar ufunc dispatch (same IEEE doubles either way)
        self.seek_scalar = seek.tolist()
        self.rate_scalar = self.rate.tolist()
        self.rotation_time = rot
        self.sectors_per_cylinder = geo.sectors_per_cylinder


@dataclass(frozen=True)
class DiskServiceModel:
    """Timing parameters (seconds) of the drive mechanics.

    Defaults approximate a 500 MB consumer IDE drive ca. 1994-95:
    4500 RPM spindle, ~14 ms average seek, ~1 ms controller overhead.
    """

    geometry: DiskGeometry = DiskGeometry()
    rpm: float = 4500.0
    #: head settle time even for a 1-cylinder seek
    seek_settle: float = 0.003
    #: coefficient of the sqrt(distance) short-seek term
    seek_sqrt_coeff: float = 0.0005
    #: coefficient of the linear long-seek term
    seek_linear_coeff: float = 0.00002
    #: fixed per-request controller/command overhead
    controller_overhead: float = 0.001

    @property
    def rotation_time(self) -> float:
        """Seconds per revolution."""
        return 60.0 / self.rpm

    @property
    def tables(self) -> _ServiceTables:
        """The model's lookup tables, built on first use and cached.

        The cache rides the instance via ``object.__setattr__`` (the
        dataclass is frozen); it is invisible to ``==``/``hash``/``repr``,
        which consider declared fields only.
        """
        tables = getattr(self, "_tables", None)
        if tables is None:
            tables = _ServiceTables(self)
            object.__setattr__(self, "_tables", tables)
        return tables

    @property
    def track_transfer_rate(self) -> float:
        """Bytes per second off the media."""
        track_bytes = self.geometry.sectors_per_track * 512
        return track_bytes / self.rotation_time

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Seek duration between two cylinders (0 when already there)."""
        distance = abs(to_cyl - from_cyl)
        tables = self.tables
        if distance < len(tables.seek):
            return tables.seek[distance]
        # beyond the platter span (callers passing synthetic distances):
        # same curve, computed directly
        return (self.seek_settle
                + self.seek_sqrt_coeff * np.sqrt(distance)
                + self.seek_linear_coeff * distance)

    def rotational_latency(self, rng: np.random.Generator) -> float:
        """Uniform 0..1 revolution wait for the target sector."""
        return float(rng.random()) * self.rotation_time

    def transfer_time(self, nsectors: int) -> float:
        """Media transfer duration for ``nsectors`` contiguous sectors."""
        if nsectors < 1:
            raise ValueError("nsectors must be >= 1")
        return nsectors * 512 / self.track_transfer_rate

    def transfer_time_at(self, nsectors: int, cylinder: int) -> float:
        """Transfer duration at a specific cylinder.

        With zoned-bit-recording geometry outer cylinders move more
        sectors per revolution, so data rate varies with position; plain
        geometry reduces to :meth:`transfer_time`.
        """
        if nsectors < 1:
            raise ValueError("nsectors must be >= 1")
        if not (0 <= cylinder < self.geometry.cylinders):
            raise ValueError(f"cylinder {cylinder} out of range")
        return nsectors * 512 / self.tables.rate[cylinder]

    def service_time(self, request: IORequest, head_cylinder: int,
                     rng) -> float:
        """Total time for the device to service ``request``.

        ``head_cylinder`` is where the actuator currently sits; callers
        track it across requests so that elevator scheduling actually
        shortens seeks.  The hot path: two table lookups, one uniform
        draw, no sqrt/branches (requests are range-checked at submit).
        ``rng`` is anything with a scalar ``random()`` —
        a :class:`numpy.random.Generator` or a batching wrapper like
        :class:`repro.sim.rng.BatchedDraws`.
        """
        tables = self.tables
        target = request.sector // tables.sectors_per_cylinder
        # summed in the fixed order controller + seek + rotation +
        # transfer; reordering would change the float rounding
        return (self.controller_overhead
                + tables.seek_scalar[abs(target - head_cylinder)]
                + float(rng.random()) * tables.rotation_time
                + request.nsectors * 512 / tables.rate_scalar[target])

    def average_random_seek(self) -> float:
        """Expected seek over uniformly random cylinder pairs (sanity aid).

        For X, Y uniform on [0, C): E|X-Y| = C/3 feeds the linear term,
        but the sqrt term needs E[sqrt|X-Y|] = (8/15)*sqrt(C) — applying
        sqrt to the *mean* distance would overstate it by ~8% (Jensen's
        inequality: sqrt is concave, so E[sqrt(D)] < sqrt(E[D])).
        """
        c = self.geometry.cylinders
        return (self.seek_settle
                + self.seek_sqrt_coeff * (8.0 / 15.0) * np.sqrt(c)
                + self.seek_linear_coeff * (c / 3.0))
