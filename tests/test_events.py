import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import hit_table, track_rows, track_table
from trackseg.errors import (ConfigError, ConsistencyError, DomainError,
                             ParseError)
from trackseg.errors import ShapeError
from trackseg.events import (DetectorConfig, Event, GenConfig, HitTable,
                             TrackTable, apply_selection, generate_event,
                             intersect_helix_layer, read_trackml_event)
from trackseg.kinematics import canonical_fits, track_params


class TestIntersectHelixLayer:
    def test_on_layer_radius(self):
        # prompt circle through the origin, layer at the circle diameter
        radius = 2.0
        pos = intersect_helix_layer(0.0, radius, radius, phi0=0.0, eta=0.0,
                                    layer_radius=1.5)
        assert pos is not None
        x, y, z = pos
        assert abs(math.hypot(x, y) - 1.5) < 1e-10
        assert abs(math.hypot(x, y - radius) - radius) < 1e-10

    def test_straight_line_limit(self):
        # huge radius: the intersection azimuth approaches the flight
        # direction like O(layer_radius / R)
        for phi0 in (0.3, 2.0, 5.5):
            radius = 1e4
            alpha = phi0 + 0.5 * math.pi  # counterclockwise convention
            pos = intersect_helix_layer(radius * math.cos(alpha),
                                        radius * math.sin(alpha), radius,
                                        phi0, eta=0.0, layer_radius=0.1)
            x, y, _ = pos
            azim = math.atan2(y, x) % (2 * math.pi)
            assert abs((azim - phi0 + math.pi) % (2 * math.pi) - math.pi) \
                < 2 * (0.1 / radius)

    def test_unreachable(self):
        # max reach 0.15 m
        assert intersect_helix_layer(0.05, 0.0, 0.1, math.pi / 2, 0.0,
                                     0.5) is None

    def test_z_from_eta(self):
        radius = 3.0
        eta = 0.8
        x, y, z = intersect_helix_layer(0.0, radius, radius, 0.0, eta, 0.5)
        # transverse arc from the origin subtends the intersection chord
        chord = math.hypot(x, y)
        arc = 2.0 * radius * math.asin(chord / (2.0 * radius))
        assert z == pytest.approx(arc * math.sinh(eta), rel=1e-12)

    def test_first_intersection_chosen(self):
        # both senses must give a point on the layer, at different spots
        radius = 2.0
        p_ccw = intersect_helix_layer(0.0, radius, radius, 0.0, 0.0, 1.0)
        p_cw = intersect_helix_layer(0.0, radius, radius, math.pi, 0.0, 1.0)
        assert p_ccw is not None and p_cw is not None
        assert not np.allclose(p_ccw[:2], p_cw[:2])


class TestGenerateEvent:
    def test_unsmeared_hits_on_circle(self, detector):
        gen = GenConfig(n_tracks=4, noise_fraction=0.0,
                        hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=3)
        for pid, pt, _, a, b in track_rows(e.tracks):
            radius = pt / (0.3 * detector.field_b)
            mine = e.hits.particle_id == pid
            for x, y in zip(e.hits.x[mine], e.hits.y[mine]):
                r = math.hypot(x - a, y - b)
                assert abs(r - radius) < 1e-10

    def test_deterministic(self, detector):
        gen = GenConfig(n_tracks=6, noise_fraction=0.2,
                        hit_smearing_sigma=1e-4)
        assert generate_event(detector, gen, seed=9) == \
            generate_event(detector, gen, seed=9)

    def test_noise_counting(self, detector):
        gen = GenConfig(n_tracks=10, eta_range=(-0.5, 0.5),
                        noise_fraction=0.1, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=1)
        n_signal = np.count_nonzero(e.hits.particle_id != 0)
        n_noise = np.count_nonzero(e.hits.particle_id == 0)
        assert n_signal == 10 * len(detector.layer_radii)
        assert n_noise == round(n_signal * 0.1 / 0.9)

    def test_truth_params_exact(self, detector):
        gen = GenConfig(n_tracks=5, noise_fraction=0.0, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=4)
        for _, pt, eps_t, a, b in track_rows(e.tracks):
            radius = pt / (0.3 * detector.field_b)
            d = math.hypot(a, b)
            assert eps_t == pytest.approx(abs(d - radius), rel=1e-9,
                                          abs=1e-15)

    def test_validates(self, detector):
        # the Event checks its invariants as generate_event builds it
        gen = GenConfig(n_tracks=8, noise_fraction=0.15,
                        hit_smearing_sigma=2e-4)
        assert len(generate_event(detector, gen, seed=5).hits)

    def test_track_hits_are_rows_plus_sizes(self, detector):
        gen = GenConfig(n_tracks=8, noise_fraction=0.15,
                        hit_smearing_sigma=2e-4)
        e = generate_event(detector, gen, seed=5)
        rows, sizes = e.track_hits()
        per_track = [np.flatnonzero(e.track_row == k)
                     for k in range(len(e.tracks))]
        assert rows.tolist() == np.concatenate(per_track).tolist()
        assert sizes.tolist() == list(map(len, per_track))
        assert 0 < len(rows) < len(e.hits)  # the noise hits are left out

    def test_bad_config(self, detector):
        with pytest.raises(ConfigError):
            generate_event(detector, GenConfig(noise_fraction=1.0), seed=0)
        with pytest.raises(ConfigError):
            generate_event(detector, GenConfig(pt_range=(5.0, 2.0)), seed=0)
        with pytest.raises(ConfigError):
            # 0.1 GeV track with 5 mm displacement violates |delta|/R^2
            generate_event(detector, GenConfig(pt_range=(0.1, 0.2),
                                               eps_range=(5e-3, 5e-3)), seed=0)

    def test_every_hit_within_the_half_length(self, detector):
        # noise obeys the tracks' acceptance and keeps its count
        for seed in range(1, 6):
            e = generate_event(detector, GenConfig(eta_range=(-2.5, 2.5)),
                               seed)
            assert np.all(np.abs(e.hits.z) <= detector.z_halflength)
            n_signal = np.count_nonzero(e.hits.particle_id != 0)
            assert np.count_nonzero(e.hits.particle_id == 0) == \
                round(n_signal * 0.1 / 0.9)

    def test_no_noise_hit_fits(self):
        # smeared track hits at eta 3 reach into z 0.3, the noise hits of
        # layer 0 (0.032 sinh 3 = 0.32) do not
        det = DetectorConfig(z_halflength=0.3)
        gen = GenConfig(n_tracks=40, eta_range=(3.0, 3.0),
                        hit_smearing_sigma=0.05)
        with pytest.raises(ConfigError, match="no noise hit fits"):
            generate_event(det, gen, seed=0)

    def test_track_beyond_the_half_length_dropped(self, detector):
        e = generate_event(detector, GenConfig(eta_range=(5.0, 5.0)), 1)
        assert len(e.hits) == 0 and len(e.tracks) == 0

    # at eta 3 the hits past layer 0 lie beyond z 0.5; a 0.01 GeV track
    # at 2 T curls on a 0.017 m radius through the beamline, reaching the
    # 0.032 m layer but not the 0.072 m one
    @pytest.mark.parametrize("params", [
        {"eta_range": (3.0, 3.0)},
        {"pt_range": (0.01, 0.01), "eps_range": (0.0, 0.0)}],
        ids=["steep", "curled"])
    def test_track_keeps_its_layer_0_hit_only(self, detector, params):
        gen = GenConfig(n_tracks=5, noise_fraction=0.0, **params)
        e = generate_event(detector, gen, seed=1)
        assert len(e.tracks) == 5
        assert e.hits.layer.tolist() == [0] * 5

    def test_truth_closure_through_conformal_fit(self, detector):
        # unsmeared hits refit through the conformal pipeline must
        # reproduce the generating circle
        gen = GenConfig(n_tracks=20, noise_fraction=0.0,
                        hit_smearing_sigma=0.0, eps_range=(1e-4, 5e-4))
        e = generate_event(detector, gen, seed=6)
        xy = np.stack([e.hits.x, e.hits.y], axis=1)
        rows, sizes = e.track_hits()
        fits = track_params(*canonical_fits(xy[rows], sizes),
                            detector.field_b)
        enough = sizes >= 4
        assert enough.any()
        t = e.tracks.take(enough)
        for (_, eps_fit, a_fit, b_fit), eps_t, a, b in zip(
                fits[enough], t.eps_t, t.a, t.b):
            assert a_fit == pytest.approx(a, rel=1e-3, abs=1e-4)
            assert b_fit == pytest.approx(b, rel=1e-3, abs=1e-4)
            assert abs(eps_fit) == pytest.approx(eps_t, rel=5e-2)


class TestValidateEvent:
    """An Event checks its invariants when it is built."""

    # each damage edits the event and its track rows
    @pytest.mark.parametrize("damage, message", [
        (lambda e, rows: replace(e, tracks=track_table(rows[1:])),
         r"^particles \[1\] lack a track$"),
        (lambda e, rows: replace(e, tracks=track_table(
            rows + [(99, *rows[0][1:])])),
         r"^particles \[99\] lack a hit$"),
        (lambda e, rows: replace(e, tracks=track_table(rows + rows[:1])),
         r"^particles \[1\] are listed twice$"),
        (lambda e, rows: replace(e, tracks=track_table(
            rows + [(0, *rows[0][1:])])),
         r"^particles \[0\] lack a hit$"),
        (lambda e, rows: replace(e, hits=replace(e.hits, hit_id=np.r_[
            e.hits.hit_id[:-1], e.hits.hit_id[:1]])), "repeats a hit_id"),
        (lambda e, rows: replace(e, tracks=track_table(
            [(99, *rows[0][1:]), *rows[1:], rows[1]])),
         r"^particles \[99\] lack a hit; particles \[1\] lack a track; "
         r"particles \[2\] are listed twice$")],
        ids=["hits-without-track", "track-without-hits", "track-repeated",
             "track-id-zero", "hit-id-repeated", "every-kind-at-once"])
    def test_track_ids_are_the_hit_particle_ids(self, detector, damage,
                                                message):
        e = generate_event(detector, GenConfig(n_tracks=3), seed=7)
        assert e.tracks.particle_id.tolist() == [1, 2, 3]
        with pytest.raises(ConsistencyError, match=message):
            damage(e, track_rows(e.tracks))


HITS_CSV = """hit_id,x,y,z,volume_id,layer_id,module_id
1,-64.4,-7.2,-514.0,8,2,1
2,32.0,1.5,10.0,8,4,2
3,100.0,0.0,20.0,13,2,3
"""

TRUTH_CSV = """hit_id,particle_id,tx,ty,tz,tpx,tpy,tpz,weight
1,101,-64.4,-7.2,-514.0,3.0,4.0,1.0,1e-05
2,101,32.0,1.5,10.0,3.0,4.0,1.0,1e-05
3,0,100.0,0.0,20.0,0.0,0.0,0.0,0.0
"""

PARTICLES_CSV = """particle_id,vx,vy,vz,px,py,pz,q,nhits
101,0.01,-0.02,0.3,3.0,4.0,1.0,1,2
"""


# TrackML inputs that ingest rejects: (files replaced, line, message)
BAD_TRACKML = [
    ({"hits": HITS_CSV.replace("-64.4,-7.2", "0.0,0.0")}, 2,
     "hits.csv: hit 1: polar angle"),
    ({"hits": HITS_CSV.replace("-64.4", "nan")}, 2,
     "hits.csv: bad value 'nan' in column 1"),
    ({"particles": PARTICLES_CSV.replace("3.0,4.0", "nan,4.0")}, 2,
     "particles.csv: bad value 'nan' in column 4"),
    # finite momenta whose track circle overflows
    ({"particles": PARTICLES_CSV.replace("3.0,4.0", "1e308,1e308")}, 2,
     "particles.csv: particle 101: eps_T must be finite"),
    ({"particles": PARTICLES_CSV + PARTICLES_CSV.splitlines()[1]
      .replace("3.0,4.0", "30.0,40.0") + "\n"}, 3,
     "particles.csv: repeated particle_id 101"),
    ({"truth": TRUTH_CSV + "1,0,0,0,0,0,0,0,0\n"}, 5,
     "truth.csv: repeated hit_id 1"),
    ({"hits": HITS_CSV + HITS_CSV.splitlines()[2] + "\n"}, 5,
     "hits.csv: repeated hit_id 2"),
    ({"hits": HITS_CSV.replace("13,2,3", "13,-1,3")}, 4,
     "hits.csv: hit 3: negative layer -1"),
    # the overflowing particle follows one that no hit refers to
    ({"particles": PARTICLES_CSV.replace(
        "nhits\n", "nhits\n102,0.0,0.0,0.0,1.0,1.0,1.0,1,0\n")
      .replace("3.0,4.0", "1e308,1e308")}, 3,
     "particles.csv: particle 101: eps_T must be finite")]
BAD_TRACKML_IDS = ["hit-on-beamline", "hit-x-nan", "particle-px-nan",
                   "particle-momentum-overflow", "particle-repeated",
                   "truth-hit-repeated", "hit-repeated", "hit-layer-negative",
                   "particle-overflow-after-unreferenced"]


def write_trackml(tmp_path, hits=HITS_CSV, truth=TRUTH_CSV,
                  particles=PARTICLES_CSV):
    paths = []
    for name, text in (("hits.csv", hits), ("truth.csv", truth),
                       ("particles.csv", particles)):
        p = tmp_path / name
        p.write_text(text)
        paths.append(p)
    return paths


@pytest.mark.parametrize("x, y, z", [
    (math.inf, 0.0, 0.1), (0.1, math.nan, 0.1), (0.1, 0.0, -math.inf),
    (0.0, 0.0, 0.3), (1e-300, 0.0, -1.0)],
    ids=["x-inf", "y-nan", "z-inf", "on-beamline", "polar-angle-rounds-to-pi"])
def test_hit_without_a_polar_angle_rejected(x, y, z):
    # an infinite x alone would still give eta 0 and phi 0; at
    # (1e-300, 0, -1) the transverse distance is positive, but the polar
    # angle rounds to pi
    with pytest.raises(DomainError):
        hit_table([(1, x, y, z, 0, 0)])


def test_hit_whose_polar_angle_is_tiny_accepted():
    hits = hit_table([(1, 1e-300, 0.0, 1.0, 0, 0)])
    assert hits.eta[0] == pytest.approx(691.4686750787736)
    assert hits.phi[0] == 0.0


@pytest.mark.parametrize("hit_id, layer, particle_id, message", [
    (1, -1, 0, "negative layer"), (2**63, 0, 0, "beyond int64"),
    (-2**63, 0, 0, "beyond int64"), (1, 0, 2**63, "beyond int64")],
    ids=["layer-negative", "hit-id-too-large", "hit-id-too-small",
         "particle-id-too-large"])
def test_hit_outside_the_stored_ranges_rejected(hit_id, layer, particle_id,
                                                message):
    with pytest.raises(DomainError, match=message):
        hit_table([(hit_id, 0.1, 0.0, 0.1, layer, particle_id)])


def test_table_names_the_first_hit_that_fails():
    # hit 3 fails two checks and hit 4 an earlier one; the error names
    # hit 3, its first failing check and its row
    rows = [(1, 0.1, 0.0, 0.1, 0, 0), (2, 0.1, 0.0, 0.1, 0, 0),
            (3, 0.0, 0.0, 0.1, -2, 0), (4, math.nan, 0.0, 0.1, 0, 0),
            (3, 0.1, 0.0, 0.1, 0, 0)]
    with pytest.raises(DomainError, match=r"^hit 3: negative layer -2$") \
            as err:
        hit_table(rows)
    assert err.value.row == 2
    with pytest.raises(ConsistencyError, match=r"^hit 3: repeats a hit_id"):
        hit_table([rows[0], rows[1], (3, 0.1, 0.0, 0.1, 0, 0), rows[4]])


def test_table_columns_are_read_only_and_compare_whole():
    hits = hit_table([(1, 0.1, 0.0, 0.1, 0, 0), (2, 0.0, 0.1, 0.2, 1, 7)])
    for name in ("hit_id", "x", "y", "z", "layer", "particle_id", "volume",
                 "eta", "phi"):
        with pytest.raises(ValueError):
            getattr(hits, name)[0] = 0
    assert hits == hit_table([(1, 0.1, 0.0, 0.1, 0, 0),
                              (2, 0.0, 0.1, 0.2, 1, 7)])
    assert hits != hit_table([(1, 0.1, 0.0, 0.1, 0, 0),
                              (2, 0.0, 0.1, 0.2, 1, 8)])
    assert hits != hit_table([(1, 0.1, 0.0, 0.1, 0, 0),
                              (2, 0.0, 0.1, 0.2, 1, 7)], volume=[0, 5])
    assert hits.take(np.array([False, True])) == \
        hit_table([(2, 0.0, 0.1, 0.2, 1, 7)])
    with pytest.raises(ValueError):
        HitTable([1, 2], [0.1], [0.0], [0.1], [0], [0], [0])


def test_table_of_arrays_equals_table_of_lists_and_copies_them():
    ids, layer, pid = (np.array(c, dtype=np.int64) for c in
                       ([1, 2], [0, 3], [0, 7]))
    hits = HitTable(ids, [0.1, 0.0], [0.0, 0.1], [0.1, -0.2], layer, pid,
                    [0, 0])
    assert hits == hit_table([(1, 0.1, 0.0, 0.1, 0, 0),
                              (2, 0.0, 0.1, -0.2, 3, 7)])
    assert ids.flags.writeable and not np.shares_memory(ids, hits.hit_id)
    ids[0] = 5
    assert hits.hit_id.tolist() == [1, 2]


# track rows that TrackTable rejects: (row, message); row 1 of each
# table fails and row 2 fails an earlier check
TRACK = (1, 2.0, 1e-4, 0.5, 0.5)
BAD_TRACKS = [
    ((2**63, 2.0, 1e-4, 0.5, 0.5), r"^particle 9223372036854775808: id "
                                   r"beyond int64$"),
    ((-2**63, 2.0, 1e-4, 0.5, 0.5), r"id beyond int64$"),
    ((2, 0.0, 1e-4, 0.5, 0.5), r"^particle 2: p_T must be positive, got "
                               r"0.0$"),
    ((2, -2.5, 1e-4, 0.5, 0.5), r"^particle 2: p_T must be positive, got "
                                r"-2.5$"),
    ((2, math.inf, 1e-4, 0.5, 0.5), r"p_T must be positive, got inf$"),
    ((2, math.nan, 1e-4, 0.5, 0.5), r"p_T must be positive, got nan$"),
    ((2, 2.0, math.nan, 0.5, 0.5), r"^particle 2: eps_T must be finite$"),
    ((2, 2.0, -math.inf, 0.5, 0.5), r"^particle 2: eps_T must be finite$")]


@pytest.mark.parametrize("bad, message", BAD_TRACKS,
                         ids=["id-too-large", "id-too-small", "pt-zero",
                              "pt-negative", "pt-inf", "pt-nan", "eps-nan",
                              "eps-inf"])
def test_track_table_names_the_first_track_that_fails(bad, message):
    later = (3, -1.0, math.nan, 0.5, 0.5)
    with pytest.raises(DomainError, match=message) as err:
        track_table([TRACK, bad, later])
    assert err.value.row == 1


def test_track_table_columns_of_unequal_length_rejected():
    with pytest.raises(ShapeError):
        TrackTable([1, 2], [2.0], [1e-4, 1e-4], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ShapeError):
        TrackTable([[1]], [[2.0]], [[1e-4]], [[0.5]], [[0.5]])


def test_track_table_columns_are_read_only_and_compare_whole():
    rows = [TRACK, (7, 3.0, 0.0, -0.5, 0.25)]
    tracks = track_table(rows)
    assert len(tracks) == 2 and track_rows(tracks) == rows
    assert tracks.particle_id.dtype == np.int64
    for name in ("particle_id", "pt", "eps_t", "a", "b"):
        with pytest.raises(ValueError):
            getattr(tracks, name)[0] = 0
    assert tracks == track_table(rows)
    assert tracks != track_table([TRACK, (7, 3.0, 0.0, -0.5, 0.5)])
    assert tracks.take(np.array([False, True])) == track_table(rows[1:])


class TestReadTrackml:
    def test_golden_rows(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        assert len(e.hits) == 3
        h = e.hits
        assert h.hit_id[0] == 1
        assert h.x[0] == pytest.approx(-0.0644)
        assert h.y[0] == pytest.approx(-0.0072)
        assert h.z[0] == pytest.approx(-0.514)
        assert h.volume[0] == 8 and h.layer[0] == 2
        assert h.particle_id[0] == 101
        assert h.particle_id[2] == 0  # noise row

    def test_pt_three_four_five(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        assert len(e.tracks) == 1
        assert e.tracks.pt[0] == pytest.approx(5.0)
        assert e.hits.hit_id[e.hits.particle_id == 101].tolist() == [1, 2]

    def test_derived_coordinates(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        theta = math.atan2(math.hypot(0.032, 0.0015), e.hits.z[1])
        assert e.hits.eta[1] == pytest.approx(
            -math.log(math.tan(theta / 2.0)))
        assert e.hits.phi[1] == pytest.approx(math.atan2(0.0015, 0.032))

    def test_empty_hits(self, tmp_path):
        header = HITS_CSV.splitlines()[0] + "\n"
        truth_header = TRUTH_CSV.splitlines()[0] + "\n"
        e = read_trackml_event(*write_trackml(
            tmp_path, hits=header, truth=truth_header))
        assert len(e.hits) == 0 and len(e.tracks) == 0

    def test_malformed_row_names_line(self, tmp_path):
        bad = HITS_CSV + "4,not_a_number,0,0,8,2,1\n"
        with pytest.raises(ParseError) as err:
            read_trackml_event(*write_trackml(tmp_path, hits=bad))
        assert err.value.line == 5
        assert "line 5" in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        bad = HITS_CSV + "4,1.0,2.0\n"
        with pytest.raises(ParseError) as err:
            read_trackml_event(*write_trackml(tmp_path, hits=bad))
        assert err.value.line == 5

    def test_bad_header(self, tmp_path):
        bad = "a,b,c\n1,2,3\n"
        with pytest.raises(ParseError) as err:
            read_trackml_event(*write_trackml(tmp_path, hits=bad))
        assert err.value.line == 1

    def test_truth_without_hit(self, tmp_path):
        bad_truth = TRUTH_CSV + "99,101,0,0,0,1,1,1,0\n"
        with pytest.raises(ConsistencyError):
            read_trackml_event(*write_trackml(tmp_path, truth=bad_truth))

    def test_missing_file(self, tmp_path):
        hits, truth, particles = write_trackml(tmp_path)
        with pytest.raises(OSError):
            read_trackml_event(tmp_path / "nope.csv", truth, particles)

    def test_particle_missing_from_particles_file(self, tmp_path):
        with pytest.raises(ConsistencyError):
            read_trackml_event(*write_trackml(
                tmp_path,
                particles=PARTICLES_CSV.splitlines()[0] + "\n"))

    @pytest.mark.parametrize("momentum", ["0.0,0.0,1.0,1", "3.0,4.0,1.0,0"],
                             ids=["pt-zero", "charge-zero"])
    def test_particle_without_a_circle_is_noise(self, tmp_path, momentum):
        e = read_trackml_event(*write_trackml(
            tmp_path, particles=PARTICLES_CSV.replace("3.0,4.0,1.0,1",
                                                      momentum)))
        assert len(e.tracks) == 0
        assert e.hits.hit_id.tolist() == [1, 2, 3]
        assert e.hits.particle_id.tolist() == [0, 0, 0]

    def test_blank_lines_skipped(self, tmp_path):
        # a blank line after the header, after the first row and at the end
        texts = {"hits": HITS_CSV, "truth": TRUTH_CSV,
                 "particles": PARTICLES_CSV}
        spaced = tmp_path / "spaced"
        spaced.mkdir()
        e = read_trackml_event(*write_trackml(spaced, **{
            name: text.replace("\n", "\n\n", 2) + "\n"
            for name, text in texts.items()}))
        assert e == read_trackml_event(*write_trackml(tmp_path))
        assert len(e.hits) == 3 and len(e.tracks) == 1

    def test_validates(self, tmp_path):
        # the Event checks its invariants as read_trackml_event builds it
        assert len(read_trackml_event(*write_trackml(tmp_path)).hits)

    @pytest.mark.parametrize("files, line, message", BAD_TRACKML,
                             ids=BAD_TRACKML_IDS)
    def test_bad_number_names_file_and_line(self, tmp_path, files, line,
                                            message):
        with pytest.raises(ParseError) as err:
            read_trackml_event(*write_trackml(tmp_path, **files))
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")
        assert message in str(err.value)


class TestApplySelection:
    def test_identity(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        out = apply_selection(e, pt_min=0.0, volumes=(8, 13))
        assert out == e

    def test_pt_threshold(self, detector):
        # one event holding a 1 GeV and a 3 GeV track
        low = generate_event(detector, GenConfig(
            n_tracks=1, pt_range=(1.0, 1.0), noise_fraction=0.0,
            hit_smearing_sigma=0.0), seed=2)
        hi = generate_event(detector, GenConfig(
            n_tracks=1, pt_range=(3.0, 3.0), noise_fraction=0.0,
            hit_smearing_sigma=0.0), seed=3)
        shift = low.hits.hit_id.max()
        columns = {name: np.r_[getattr(low.hits, name),
                               getattr(hi.hits, name)]
                   for name in ("hit_id", "x", "y", "z", "layer",
                                "particle_id", "volume")}
        columns["hit_id"][len(low.hits):] += shift
        columns["particle_id"][len(low.hits):] = 2
        (low_track,), ((_, *hi_params),) = map(track_rows, (low.tracks,
                                                          hi.tracks))
        merged = Event(0, HitTable(**columns),
                       track_table([low_track, (2, *hi_params)]))
        kept = apply_selection(merged, pt_min=2.0, volumes=(0,))
        assert set(kept.hits.particle_id.tolist()) == {2}
        assert kept.tracks.particle_id.tolist() == [2]
        assert kept.tracks.pt[0] == pytest.approx(3.0)

    def test_volume_filter(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        out = apply_selection(e, pt_min=0.0, volumes={8})
        assert out.hits.volume.tolist() == [8, 8]

    def test_noise_kept_regardless_of_pt(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        out = apply_selection(e, pt_min=100.0, volumes=(8, 13))
        assert out.hits.particle_id.tolist() == [0]
        assert len(out.tracks) == 0

    def test_idempotent_and_monotone(self, detector):
        gen = GenConfig(n_tracks=8, noise_fraction=0.2, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=12)
        once = apply_selection(e, pt_min=3.0, volumes={0})
        twice = apply_selection(once, pt_min=3.0, volumes={0})
        assert once == twice
        assert len(once.hits) <= len(e.hits)
