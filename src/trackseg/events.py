"""Event production: a synthetic generator with exact ground truth and a
TrackML CSV ingester, both giving an event's hits as one HitTable, and
the event-v4 document that stores an event.

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
from dataclasses import dataclass, field

import numpy as np

from .angles import wrap_phi
from .errors import ConfigError, ConsistencyError, DomainError, \
    ParseError, ShapeError
from .jsonio import decode_table, encode_table, number, parsing
from .kinematics import PT_COEFF, CircleTrack, TrackParams, pseudorapidity

MM_TO_M = 1e-3

TRACKML_HITS_HEADER = ["hit_id", "x", "y", "z", "volume_id", "layer_id",
                       "module_id"]
TRACKML_TRUTH_HEADER = ["hit_id", "particle_id", "tx", "ty", "tz", "tpx",
                        "tpy", "tpz", "weight"]
TRACKML_PARTICLES_HEADER = ["particle_id", "vx", "vy", "vz", "px", "py",
                            "pz", "q", "nhits"]


# stored hit columns, an event's with "volume"; x, y, z numbers, rest ints
HIT_FIELDS = ("hit_id", "x", "y", "z", "layer", "particle_id")
_COLUMNS = (*HIT_FIELDS, "volume")

EVENT_FORMAT = "event-v4"
# a track's columns: its id, then TrackParams in field order
TRACK_COLUMNS = dict(particle_id=int, pt=float, eps_t=float, a=float, b=float)


def _int64(values) -> tuple[np.ndarray, np.ndarray]:
    """`values` as int64, 0 where |v| >= 2**63, and the mask of those;
    an int64 array is copied as it is."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values.copy(), np.zeros(values.shape, dtype=bool)
    values = np.array(values, dtype=object)  # Python ints of any size
    beyond = (abs(values) >= 2**63).astype(bool)
    return np.where(beyond, 0, values).astype(np.int64), beyond


@dataclass(frozen=True, eq=False)
class HitTable:
    """Hits as read-only numpy columns, one row per hit; particle_id 0
    marks noise and volume is None where the source stores none (a
    graph).  eta and phi are derived from (x, y, z) one hit at a time
    with math.atan2 and math.hypot, eta from the polar angles by
    kinematics.pseudorapidity.  Tables
    are equal when their stored columns are.

    Construction checks whole columns: a non-finite coordinate, a
    negative layer, an id, layer or volume beyond int64 or a polar angle
    outside (0, pi) raises DomainError naming the first hit that fails
    and carrying its row, then a repeated hit_id ConsistencyError.
    """
    hit_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    layer: np.ndarray
    particle_id: np.ndarray
    volume: np.ndarray | None = None
    eta: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)

    def __post_init__(self):
        columns = {name: np.array(getattr(self, name), dtype=float)
                   for name in "xyz"}
        beyond = {"volume": False}
        for name in ("hit_id", "layer", "particle_id", "volume"):
            if getattr(self, name) is not None:
                columns[name], beyond[name] = _int64(getattr(self, name))
        if len({c.shape for c in columns.values()}) != 1 or \
                columns["x"].ndim != 1:
            raise ShapeError("hit columns must be 1-d and of one length")
        x, y, z, layer = (columns[name] for name in ("x", "y", "z", "layer"))
        xs, ys = x.tolist(), y.tolist()
        theta = np.array(list(map(math.atan2, map(math.hypot, xs, ys),
                                  z.tolist())), dtype=float)
        half = 0.5 * theta
        problems = {  # in the order a hit is checked
            "non-finite coordinate": ~np.isfinite([x, y, z]).all(axis=0),
            "negative layer {layer}": layer < 0,
            "id beyond int64": beyond["hit_id"] | beyond["particle_id"],
            "layer or volume beyond int64": beyond["layer"] | beyond["volume"],
            "polar angle must lie in (0, pi), got {theta}":
                ~((0.0 < half) & (half < 0.5 * math.pi))}
        failed = np.any(list(problems.values()), axis=0)
        if failed.any():
            row = int(np.argmax(failed))
            problem = next(p for p, mask in problems.items() if mask[row])
            raise DomainError(f"hit {self.hit_id[row]}: " + problem.format(
                layer=layer[row], theta=theta[row]), row=row)
        ids = columns["hit_id"]
        first = np.unique(ids, return_index=True)[1]
        if len(first) < len(ids):
            row = np.setdiff1d(np.arange(len(ids)), first)[0]
            raise ConsistencyError(f"hit {ids[row]}: repeats a hit_id")
        columns["eta"] = pseudorapidity(theta)
        columns["phi"] = wrap_phi(np.array(list(map(math.atan2, ys, xs)),
                                           float))
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.hit_id)

    def __eq__(self, other) -> bool:
        return isinstance(other, HitTable) and all(
            np.array_equal(getattr(self, n), getattr(other, n))
            for n in _COLUMNS)

    def take(self, rows, volume: bool = True) -> HitTable:
        """The hits `rows` (a mask, slice or distinct indices) selects,
        with their volumes if `volume`; no check runs again."""
        table = object.__new__(HitTable)
        object.__setattr__(table, "volume", None)
        for name in (*_COLUMNS, "eta", "phi"):
            column = getattr(self, name)
            if column is not None and (volume or name != "volume"):
                column = column[rows]
                column.flags.writeable = False
                object.__setattr__(table, name, column)
        return table

    def particle_rows(self, particle_ids) -> list[np.ndarray]:
        """The rows of each listed particle's hits, ascending; each
        particle must have a hit."""
        order = np.argsort(self.particle_id, kind="stable")
        ids, starts = np.unique(self.particle_id[order], return_index=True)
        groups = dict(zip(ids.tolist(), np.split(order, starts[1:])))
        return [groups[pid] for pid in particle_ids]


def _kinds(volume: bool) -> dict:
    """The kind of each stored hit column, volume's if `volume`."""
    return {name: float if name in "xyz" else int
            for name in (_COLUMNS if volume else HIT_FIELDS)}


def hit_columns(hits: HitTable) -> dict:
    """The stored table of hits: HIT_FIELDS, then volume if any."""
    kinds = _kinds(hits.volume is not None)
    return encode_table(kinds, [getattr(hits, name) for name in kinds])


def hits_from_columns(stored, volume: bool) -> HitTable:
    """The hits of a stored table (jsonio.decode_table), with volumes if
    `volume`."""
    return HitTable(*decode_table(stored, _kinds(volume)))


@dataclass(frozen=True)
class TruthTrack:
    """A particle's truth parameters; its hits carry its particle_id."""
    particle_id: int
    params: TrackParams


@dataclass(frozen=True)
class Event:
    """One event's hits and truth tracks.  The track ids are exactly the
    nonzero hit particle ids, each once."""
    event_id: int
    hits: HitTable
    tracks: tuple[TruthTrack, ...]

    def __post_init__(self):
        pids = self.hits.particle_id
        if sorted(t.particle_id for t in self.tracks) != \
                np.unique(pids[pids != 0]).tolist():
            raise ConsistencyError("each particle with hits needs exactly "
                                   "one track, and each track a hit")


def event_to_dict(e: Event, config_echo: dict | None = None) -> dict:
    """The event-v4 document: tables of binary hit and truth track
    columns (jsonio.encode_table); hit eta and phi and each track's hits
    are derived again on read."""
    doc = {
        "format": EVENT_FORMAT,
        "event_id": e.event_id,
        "hits": hit_columns(e.hits),
        "tracks": encode_table(TRACK_COLUMNS, zip(*[
            (t.particle_id, *vars(t.params).values()) for t in e.tracks])),
    }
    if config_echo is not None:
        doc["config"] = config_echo
    return doc


def event_from_dict(d: dict) -> Event:
    """Decode an event-v4 document; tables jsonio.decode_table rejects,
    hits a HitTable rejects, an Event that breaks its invariants and an
    event document of another version raise ConsistencyError."""
    with parsing(d, EVENT_FORMAT,
                 "regenerate the events with generate or ingest"):
        hits = hits_from_columns(d["hits"], volume=True)
        tracks = tuple(TruthTrack(k, TrackParams(*p)) for k, *p in zip(*(
            column.tolist() for column in decode_table(d["tracks"],
                                                       TRACK_COLUMNS))))
        return Event(number(d["event_id"], int), hits, tracks)


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
        if PT_COEFF * self.field_b * RADIUS_LIMIT < PT_LIMIT:
            raise ConfigError(f"detector.field_b must be at least "
                              f"{PT_LIMIT / (PT_COEFF * RADIUS_LIMIT):.3g} "
                              f"T, or track radii pass {RADIUS_LIMIT:g} m")


ETA_LIMIT = 20.0  # from |eta| about 37 on, a polar angle rounds to pi
PT_LIMIT = 1e4  # GeV; a huge p_T gives a radius whose square overflows
RADIUS_LIMIT = 1e100  # m; the largest radius p_T / (PT_COEFF * field_b)


@dataclass(frozen=True)
class GenConfig:
    """Generator settings: |eta| <= ETA_LIMIT, 0 < p_T <= PT_LIMIT."""
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
        if not 0 < self.pt_range[0] <= self.pt_range[1] <= PT_LIMIT:
            raise ConfigError(f"pt_range must lie in (0, {PT_LIMIT:g}] GeV")
        if max(map(abs, self.eta_range)) > ETA_LIMIT:
            raise ConfigError(f"eta_range must lie in +-{ETA_LIMIT:g}")
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
    if eps_max * (2.0 * r_min + eps_max) > 0.01 * r_min * r_min:
        raise ConfigError(
            "pt_range/eps_range violate the parabola validity bound "
            "|delta|/R^2 <= 0.01")

    rng = np.random.default_rng(seed)
    rows: list[tuple] = []  # (x, y, z, layer, particle_id) per hit
    tracks: list[TruthTrack] = []

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

        track_rows = []
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
            track_rows.append((x, y, z, layer, pid))
        if not track_rows:
            continue
        rows.extend(track_rows)
        tracks.append(TruthTrack(
            pid, TrackParams(pt, abs(d - radius), circle.a, circle.b)))

    n_signal = len(rows)
    nf = gen.noise_fraction
    n_noise = int(round(n_signal * nf / (1.0 - nf))) if nf > 0 else 0
    for _ in range(n_noise):
        layer = int(rng.integers(0, len(det.layer_radii)))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        eta = rng.uniform(*gen.eta_range)
        r = det.layer_radii[layer]
        z = r * math.sinh(eta)
        rows.append((r * math.cos(phi), r * math.sin(phi), z, layer, 0))

    n = len(rows)
    x, y, z, layer, pid = list(zip(*rows)) or [()] * 5
    return Event(event_id, HitTable(np.arange(1, n + 1), x, y, z, layer, pid,
                                    np.zeros(n, dtype=int)), tuple(tracks))


def _parse_fields(path, lineno, row, int_cols: set[int]):
    out = []
    for i, cell in enumerate(row):
        try:
            out.append(int(cell) if i in int_cols else float(cell))
            if i not in int_cols and not math.isfinite(out[-1]):
                raise ValueError(f"{cell!r} is not finite")
        except ValueError:
            raise ParseError(f"{path}: bad value {cell!r} in column {i}",
                             line=lineno)
    return out


def _keyed_rows(path, header: list[str], int_cols: set[int]) -> dict:
    """{first field: (fields, line)} of each row of a TrackML CSV file; a
    bad header, field count or value and a repeated first field raise
    ParseError naming the line."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None:
            raise ParseError(f"{path}: empty file, expected header "
                             f"{','.join(header)}", line=1)
        if [h.strip() for h in found] != header:
            raise ParseError(f"{path}: unexpected header {found!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: expected {len(header)} fields, "
                                 f"got {len(row)}", line=lineno)
            vals = _parse_fields(path, lineno, row, int_cols)
            if vals[0] in rows:
                raise ParseError(f"{path}: repeated {header[0]} {vals[0]}",
                                 line=lineno)
            rows[vals[0]] = vals, lineno
    return rows


def read_trackml_event(hits_path, truth_path, particles_path,
                       field_b: float = 2.0) -> Event:
    """Ingest one TrackML event, as event 0, from its hits/truth/particles
    CSV files.

    Distances are converted mm -> m; per-particle p_T comes from the
    particles file momenta; the truth circle is reconstructed from the
    production vertex, momentum direction and charge assuming an ideal
    solenoid field.  Particles with zero p_T or a non-unit charge cannot
    form a circle and their hits are kept as noise.  A hit that the
    HitTable rejects, a particle whose momentum gives no finite track
    and a repeated row raise ParseError naming the line.
    """
    hits = _keyed_rows(hits_path, TRACKML_HITS_HEADER, {0, 4, 5, 6})
    truth = _keyed_rows(truth_path, TRACKML_TRUTH_HEADER, {0, 1})
    for hit_id in truth:
        if hit_id not in hits:
            raise ConsistencyError(
                f"truth hit_id {hit_id} has no matching hits row")
    particles = _keyed_rows(particles_path, TRACKML_PARTICLES_HEADER,
                            {0, 7, 8})

    hit_particle = {hit_id: vals[1] for hit_id, (vals, _) in truth.items()}
    params = {}
    for pid in sorted(set(hit_particle.values()) - {0}):
        if pid not in particles:
            raise ConsistencyError(
                f"particle {pid} in truth but not in particles file")
        (_, vx, vy, _, px, py, _, q, _), lineno = particles[pid]
        pt = math.hypot(px, py)
        if pt <= 0.0 or q not in (-1, 1):
            continue
        radius = pt / (PT_COEFF * field_b)
        phi_c = math.atan2(py, px) - q * 0.5 * math.pi
        a = vx * MM_TO_M + radius * math.cos(phi_c)
        b = vy * MM_TO_M + radius * math.sin(phi_c)
        try:
            params[pid] = TrackParams(pt, abs(math.hypot(a, b) - radius),
                                      a, b)
        except DomainError as err:
            raise ParseError(f"{particles_path}: particle {pid}: {err}",
                             line=lineno) from err

    pids = [hit_particle.get(hit_id, 0) for hit_id in hits]
    rows = list(hits.values())
    hit_id, x, y, z, volume, layer, _ = \
        list(zip(*(vals for vals, _ in rows))) or [()] * 7
    try:
        table = HitTable(hit_id, *(np.multiply(c, MM_TO_M) for c in (x, y, z)),
                         layer, [pid if pid in params else 0 for pid in pids],
                         volume)
    except DomainError as err:
        raise ParseError(f"{hits_path}: {err}", line=rows[err.row][1]) \
            from err
    return Event(0, table, tuple(TruthTrack(pid, p)
                                 for pid, p in params.items()))


def apply_selection(e: Event, pt_min: float, volumes) -> Event:
    """Keep the hits in the listed volumes whose truth p_T >= pt_min.

    Noise hits pass the p_T cut unconditionally but are still filtered by
    volume; tracks left without hits are dropped.  Idempotent, and the
    hit count never increases.
    """
    passing = [t.particle_id for t in e.tracks if t.params.p_t >= pt_min]
    pids = e.hits.particle_id
    hits = e.hits.take(np.isin(e.hits.volume, list(volumes))
                       & ((pids == 0) | np.isin(pids, passing)))
    kept = set(hits.particle_id.tolist())
    return Event(e.event_id, hits,
                 tuple(t for t in e.tracks if t.particle_id in kept))
