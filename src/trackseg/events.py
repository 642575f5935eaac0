"""Event production: a synthetic generator with exact ground truth and a
TrackML CSV ingester.

The synthetic detector is a set of idealized concentric cylinders.  Each
generated particle follows an exact transverse circle; its hits are the
circle-cylinder intersections, with the z coordinate taken from the
straight-line relation z = s*sinh(eta) where s is the transverse arc
length from the point of closest approach (the transverse and
longitudinal planes are treated as independent).  Truth parameters are
computed from the generating circle, so every downstream estimate can be
checked against an exact answer.

TrackML files are millimeters; everything here is meters, tesla, GeV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .angles import wrap_phi
from .errors import ConfigError, ConsistencyError, ParseError
from .kinematics import PT_COEFF, CircleTrack, TrackParams, pseudorapidity

MM_TO_M = 1e-3

TRACKML_HITS_HEADER = ["hit_id", "x", "y", "z", "volume_id", "layer_id",
                       "module_id"]
TRACKML_TRUTH_HEADER = ["hit_id", "particle_id", "tx", "ty", "tz", "tpx",
                        "tpy", "tpz", "weight"]
TRACKML_PARTICLES_HEADER = ["particle_id", "vx", "vy", "vz", "px", "py",
                            "pz", "q", "nhits"]


@dataclass(frozen=True)
class Hit:
    """One detector measurement.  particle_id 0 marks noise; eta and phi
    are derived from (x, y, z) by hit_from_xyz."""
    hit_id: int
    x: float
    y: float
    z: float
    eta: float
    phi: float
    layer: int
    particle_id: int
    volume: int = 0


@dataclass(frozen=True)
class TruthTrack:
    """A particle's truth parameters; its hits carry its particle_id."""
    particle_id: int
    params: TrackParams


@dataclass(frozen=True)
class Event:
    event_id: int
    hits: tuple[Hit, ...]
    tracks: tuple[TruthTrack, ...]

    def track_hits(self) -> dict[int, list[Hit]]:
        """The hits grouped by particle id (0: noise), in event order."""
        groups: dict[int, list[Hit]] = {}
        for h in self.hits:
            groups.setdefault(h.particle_id, []).append(h)
        return groups


@dataclass(frozen=True)
class DetectorConfig:
    """Idealized cylindrical layers: radii in m, strictly increasing."""
    layer_radii: tuple[float, ...] = (0.032, 0.072, 0.116, 0.172)
    z_halflength: float = 0.5
    field_b: float = 2.0

    def __post_init__(self):
        radii = self.layer_radii
        if len(radii) == 0 or any(r <= 0 for r in radii):
            raise ConfigError("layer radii must be positive")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("layer radii must be strictly increasing")
        if self.z_halflength <= 0 or self.field_b <= 0:
            raise ConfigError("z_halflength and field_b must be positive")


@dataclass(frozen=True)
class GenConfig:
    n_tracks: int = 10
    pt_range: tuple[float, float] = (2.0, 5.0)
    eps_range: tuple[float, float] = (0.0, 5e-4)
    eta_range: tuple[float, float] = (-1.0, 1.0)
    noise_fraction: float = 0.1
    hit_smearing_sigma: float = 2e-4

    def __post_init__(self):
        if self.n_tracks < 0:
            raise ConfigError("n_tracks must be >= 0")
        for name in ("pt_range", "eps_range", "eta_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ConfigError(f"{name} must be ordered, got ({lo}, {hi})")
        if self.pt_range[0] <= 0:
            raise ConfigError("pt_range must be positive")
        if self.eps_range[0] < 0:
            raise ConfigError("eps_range must be non-negative")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ConfigError("noise_fraction must lie in [0, 1)")
        if self.hit_smearing_sigma < 0:
            raise ConfigError("hit_smearing_sigma must be >= 0")


def intersect_helix_layer(circle: CircleTrack, phi0: float, eta: float,
                          layer_radius: float):
    """First circle-cylinder intersection along the direction of flight.

    phi0 is the flight azimuth at the point of closest approach; it
    selects the traversal sense of the circle.  Returns (x, y, z) with z
    from the straight-line z-s relation, or None when the circle never
    reaches the layer.
    """
    if layer_radius <= 0:
        raise ConfigError(f"layer radius must be positive, got {layer_radius}")
    a, b, radius = circle.a, circle.b, circle.R
    d = math.hypot(a, b)
    if d < 1e-15:
        return None  # circle concentric with the beamline: degenerate
    if layer_radius > d + radius or layer_radius < abs(d - radius):
        return None

    alpha = math.atan2(b, a)
    cos_gamma = (d * d + layer_radius**2 - radius**2) / (2.0 * d * layer_radius)
    gamma = math.acos(min(1.0, max(-1.0, cos_gamma)))

    # closest approach sits at angle alpha + pi around the track center
    psi_pca = alpha + math.pi
    cross = (-radius * math.cos(alpha)) * math.sin(phi0) \
        - (-radius * math.sin(alpha)) * math.cos(phi0)
    sense = 1.0 if cross >= 0.0 else -1.0

    best = None
    for sign in (1.0, -1.0):
        px = layer_radius * math.cos(alpha + sign * gamma)
        py = layer_radius * math.sin(alpha + sign * gamma)
        psi = math.atan2(py - b, px - a)
        arc = math.fmod((psi - psi_pca) * sense, 2.0 * math.pi)
        if arc < 0.0:
            arc += 2.0 * math.pi
        if best is None or arc < best[0]:
            best = (arc, px, py)
    arc, px, py = best
    z = radius * arc * math.sinh(eta)
    return px, py, z


def hit_from_xyz(hit_id: int, x: float, y: float, z: float, layer: int,
                 particle_id: int, volume: int = 0) -> Hit:
    """A hit at (x, y, z) with its derived eta and phi; a hit on the
    beamline has no polar angle in (0, pi) and raises DomainError."""
    eta = pseudorapidity(math.atan2(math.hypot(x, y), z))
    return Hit(hit_id, x, y, z, eta, float(wrap_phi(math.atan2(y, x))),
               layer, particle_id, volume)


def generate_event(det: DetectorConfig, gen: GenConfig, seed: int,
                   event_id: int = 0) -> Event:
    """Generate one synthetic event, deterministic in seed.

    Each track contributes one hit per reachable layer (dropped beyond
    the cylinder half-length); tracks left with no hits are dropped.
    Noise hits are placed uniformly in (phi, eta, layer) so that
    noise/(noise+signal) matches noise_fraction after rounding.  Truth
    parameters come exactly from the generating circle.
    """
    r_min = gen.pt_range[0] / (PT_COEFF * det.field_b)
    eps_max = gen.eps_range[1]
    if (2.0 * eps_max * r_min + eps_max**2) / r_min**2 > 0.01:
        raise ConfigError(
            "pt_range/eps_range violate the parabola validity bound "
            "|delta|/R^2 <= 0.01")

    rng = np.random.default_rng(seed)
    hits: list[Hit] = []
    tracks: list[TruthTrack] = []
    next_id = 1

    for i in range(gen.n_tracks):
        pid = i + 1
        pt = rng.uniform(*gen.pt_range)
        radius = pt / (PT_COEFF * det.field_b)
        eps = rng.uniform(*gen.eps_range)
        eta = rng.uniform(*gen.eta_range)
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        charge = int(rng.integers(0, 2)) * 2 - 1
        side = int(rng.integers(0, 2)) * 2 - 1
        d = radius + side * eps
        circle = CircleTrack(d * math.cos(alpha), d * math.sin(alpha), radius)
        # charge +1 circulates counterclockwise under this convention
        phi0 = alpha - charge * 0.5 * math.pi

        track_hits = []
        for layer, layer_radius in enumerate(det.layer_radii):
            pos = intersect_helix_layer(circle, phi0, eta, layer_radius)
            if pos is None:
                continue
            x, y, z = pos
            dx, dy, dz = rng.normal(0.0, gen.hit_smearing_sigma or 0.0, 3)
            if gen.hit_smearing_sigma > 0.0:
                x, y, z = x + dx, y + dy, z + dz
            if abs(z) > det.z_halflength:
                continue
            track_hits.append(hit_from_xyz(next_id, x, y, z, layer, pid))
            next_id += 1
        if not track_hits:
            continue
        hits.extend(track_hits)
        tracks.append(TruthTrack(
            pid, TrackParams(pt, abs(d - radius), circle.a, circle.b)))

    n_signal = len(hits)
    nf = gen.noise_fraction
    n_noise = int(round(n_signal * nf / (1.0 - nf))) if nf > 0 else 0
    for _ in range(n_noise):
        layer = int(rng.integers(0, len(det.layer_radii)))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        eta = rng.uniform(*gen.eta_range)
        r = det.layer_radii[layer]
        z = r * math.sinh(eta)
        hits.append(hit_from_xyz(next_id, r * math.cos(phi),
                                 r * math.sin(phi), z, layer, 0))
        next_id += 1

    return Event(event_id, tuple(hits), tuple(tracks))


def _read_csv_rows(path, expected_header: list[str]):
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected header "
                             f"{','.join(expected_header)}", line=1)
        if [h.strip() for h in header] != expected_header:
            raise ParseError(f"{path}: unexpected header {header!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ParseError(f"{path}: expected {len(expected_header)} "
                                 f"fields, got {len(row)}", line=lineno)
            yield lineno, row


def _parse_fields(path, lineno, row, int_cols: set[int]):
    out = []
    for i, cell in enumerate(row):
        try:
            out.append(int(cell) if i in int_cols else float(cell))
        except ValueError:
            raise ParseError(f"{path}: bad value {cell!r} in column {i}",
                             line=lineno)
    return out


def read_trackml_event(hits_path, truth_path, particles_path,
                       field_b: float = 2.0, event_id: int = 0) -> Event:
    """Ingest one TrackML event from its hits/truth/particles CSV files.

    Distances are converted mm -> m; per-particle p_T comes from the
    particles file momenta; the truth circle is reconstructed from the
    production vertex, momentum direction and charge assuming an ideal
    solenoid field.  Particles with zero p_T or a non-unit charge cannot
    form a circle and their hits are kept as noise.
    """
    raw_hits: dict[int, tuple] = {}
    order: list[int] = []
    for lineno, row in _read_csv_rows(hits_path, TRACKML_HITS_HEADER):
        vals = _parse_fields(hits_path, lineno, row, {0, 4, 5, 6})
        hit_id = vals[0]
        if hit_id in raw_hits:
            raise ConsistencyError(f"duplicate hit_id {hit_id} in {hits_path}")
        raw_hits[hit_id] = (vals[1] * MM_TO_M, vals[2] * MM_TO_M,
                            vals[3] * MM_TO_M, vals[4], vals[5])
        order.append(hit_id)

    hit_particle: dict[int, int] = {}
    for lineno, row in _read_csv_rows(truth_path, TRACKML_TRUTH_HEADER):
        vals = _parse_fields(truth_path, lineno, row, {0, 1})
        if vals[0] not in raw_hits:
            raise ConsistencyError(
                f"truth hit_id {vals[0]} has no matching hits row")
        hit_particle[vals[0]] = vals[1]

    particles: dict[int, tuple] = {}
    for lineno, row in _read_csv_rows(particles_path,
                                      TRACKML_PARTICLES_HEADER):
        vals = _parse_fields(particles_path, lineno, row, {0, 7, 8})
        particles[vals[0]] = (vals[1] * MM_TO_M, vals[2] * MM_TO_M,
                              vals[4], vals[5], vals[7])

    params = {}
    for pid in sorted(set(hit_particle.values()) - {0}):
        if pid not in particles:
            raise ConsistencyError(
                f"particle {pid} in truth but not in particles file")
        vx, vy, px, py, q = particles[pid]
        pt = math.hypot(px, py)
        if pt <= 0.0 or q not in (-1, 1):
            continue
        radius = pt / (PT_COEFF * field_b)
        phi_c = math.atan2(py, px) - q * 0.5 * math.pi
        a = vx + radius * math.cos(phi_c)
        b = vy + radius * math.sin(phi_c)
        params[pid] = TrackParams(pt, abs(math.hypot(a, b) - radius), a, b)

    hits = []
    for hit_id in order:
        x, y, z, volume, layer = raw_hits[hit_id]
        pid = hit_particle.get(hit_id, 0)
        if pid not in params:
            pid = 0  # unparametrizable particle: keep the hit as noise
        hits.append(hit_from_xyz(hit_id, x, y, z, layer, pid, volume))

    tracks = tuple(TruthTrack(pid, p) for pid, p in params.items())
    return Event(event_id, tuple(hits), tracks)


def apply_selection(e: Event, pt_min: float = 0.0,
                    volumes=None) -> Event:
    """Keep hits in the listed volumes whose truth p_T >= pt_min.

    Noise hits pass the p_T cut unconditionally but are still filtered by
    volume; tracks left without hits are dropped.  Idempotent, and the
    hit count never increases.
    """
    volume_set = None if volumes is None else set(volumes)
    track_pt = {t.particle_id: t.params.p_t for t in e.tracks}

    def keep(h: Hit) -> bool:
        if volume_set is not None and h.volume not in volume_set:
            return False
        if h.particle_id == 0:
            return True
        return track_pt.get(h.particle_id, 0.0) >= pt_min

    kept = tuple(h for h in e.hits if keep(h))
    kept_pids = {h.particle_id for h in kept}
    return Event(e.event_id, kept,
                 tuple(t for t in e.tracks if t.particle_id in kept_pids))


def validate_event(e: Event) -> None:
    """Check the Event type invariants; raises ConsistencyError."""
    seen: set[int] = set()
    for h in e.hits:
        if h.hit_id in seen:
            raise ConsistencyError(f"duplicate hit_id {h.hit_id}")
        seen.add(h.hit_id)
        if not all(map(math.isfinite, (h.x, h.y, h.z))):
            raise ConsistencyError(f"hit {h.hit_id}: non-finite coordinate")
        if max(abs(h.hit_id), abs(h.particle_id)) >= 2**63:
            raise ConsistencyError(f"hit {h.hit_id}: id beyond int64")
        if h.layer < 0:
            raise ConsistencyError(f"hit {h.hit_id}: negative layer")
        if not 0.0 <= h.phi < 2.0 * math.pi:
            raise ConsistencyError(f"hit {h.hit_id}: phi out of [0, 2pi)")
    # track ids are distinct, nonzero and the nonzero hit particle ids
    track_pids = sorted(t.particle_id for t in e.tracks)
    if track_pids != sorted({h.particle_id for h in e.hits} - {0}):
        raise ConsistencyError("each particle with hits needs exactly one "
                               "track, and each track a hit")
