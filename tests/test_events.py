import math
from dataclasses import replace

import numpy as np
import pytest

from trackseg.errors import ConfigError, ConsistencyError, ParseError
from trackseg.events import (GenConfig, apply_selection, generate_event,
                             intersect_helix_layer, read_trackml_event,
                             validate_event)
from trackseg.kinematics import CircleTrack, fit_track_conformal


class TestIntersectHelixLayer:
    def test_on_layer_radius(self):
        # prompt circle through the origin, layer at the circle diameter
        radius = 2.0
        c = CircleTrack(0.0, radius, radius)
        pos = intersect_helix_layer(c, phi0=0.0, eta=0.0, layer_radius=1.5)
        assert pos is not None
        x, y, z = pos
        assert abs(math.hypot(x, y) - 1.5) < 1e-10
        assert abs(math.hypot(x - c.a, y - c.b) - radius) < 1e-10

    def test_straight_line_limit(self):
        # huge radius: the intersection azimuth approaches the flight
        # direction like O(layer_radius / R)
        for phi0 in (0.3, 2.0, 5.5):
            radius = 1e4
            alpha = phi0 + 0.5 * math.pi  # counterclockwise convention
            c = CircleTrack(radius * math.cos(alpha),
                            radius * math.sin(alpha), radius)
            pos = intersect_helix_layer(c, phi0, eta=0.0, layer_radius=0.1)
            x, y, _ = pos
            azim = math.atan2(y, x) % (2 * math.pi)
            assert abs((azim - phi0 + math.pi) % (2 * math.pi) - math.pi) \
                < 2 * (0.1 / radius)

    def test_unreachable(self):
        c = CircleTrack(0.05, 0.0, 0.1)  # max reach 0.15 m
        assert intersect_helix_layer(c, math.pi / 2, 0.0, 0.5) is None

    def test_z_from_eta(self):
        radius = 3.0
        c = CircleTrack(0.0, radius, radius)
        eta = 0.8
        x, y, z = intersect_helix_layer(c, 0.0, eta, 0.5)
        # transverse arc from the origin subtends the intersection chord
        chord = math.hypot(x, y)
        arc = 2.0 * radius * math.asin(chord / (2.0 * radius))
        assert z == pytest.approx(arc * math.sinh(eta), rel=1e-12)

    def test_first_intersection_chosen(self):
        # both senses must give a point on the layer, at different spots
        radius = 2.0
        c = CircleTrack(0.0, radius, radius)
        p_ccw = intersect_helix_layer(c, 0.0, 0.0, 1.0)
        p_cw = intersect_helix_layer(c, math.pi, 0.0, 1.0)
        assert p_ccw is not None and p_cw is not None
        assert not np.allclose(p_ccw[:2], p_cw[:2])


class TestGenerateEvent:
    def test_unsmeared_hits_on_circle(self, detector):
        gen = GenConfig(n_tracks=4, noise_fraction=0.0,
                        hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=3)
        track_hits = e.track_hits()
        for t in e.tracks:
            radius = t.params.p_t / (0.3 * detector.field_b)
            for h in track_hits[t.particle_id]:
                r = math.hypot(h.x - t.params.a, h.y - t.params.b)
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
        n_signal = sum(1 for h in e.hits if h.particle_id != 0)
        n_noise = sum(1 for h in e.hits if h.particle_id == 0)
        assert n_signal == 10 * len(detector.layer_radii)
        assert n_noise == round(n_signal * 0.1 / 0.9)

    def test_truth_params_exact(self, detector):
        gen = GenConfig(n_tracks=5, noise_fraction=0.0, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=4)
        for t in e.tracks:
            radius = t.params.p_t / (0.3 * detector.field_b)
            d = math.hypot(t.params.a, t.params.b)
            assert t.params.eps_t == pytest.approx(abs(d - radius),
                                                   rel=1e-9, abs=1e-15)

    def test_validates(self, detector):
        gen = GenConfig(n_tracks=8, noise_fraction=0.15,
                        hit_smearing_sigma=2e-4)
        validate_event(generate_event(detector, gen, seed=5))

    def test_bad_config(self, detector):
        with pytest.raises(ConfigError):
            generate_event(detector, GenConfig(noise_fraction=1.0), seed=0)
        with pytest.raises(ConfigError):
            generate_event(detector, GenConfig(pt_range=(5.0, 2.0)), seed=0)
        with pytest.raises(ConfigError):
            # 0.1 GeV track with 5 mm displacement violates |delta|/R^2
            generate_event(detector, GenConfig(pt_range=(0.1, 0.2),
                                               eps_range=(5e-3, 5e-3)), seed=0)

    def test_truth_closure_through_conformal_fit(self, detector):
        # unsmeared hits refit through the conformal pipeline must
        # reproduce the generating circle
        gen = GenConfig(n_tracks=20, noise_fraction=0.0,
                        hit_smearing_sigma=0.0, eps_range=(1e-4, 5e-4))
        e = generate_event(detector, gen, seed=6)
        track_hits = e.track_hits()
        for t in e.tracks:
            hits = track_hits[t.particle_id]
            if len(hits) < 4:
                continue
            xy = np.array([[h.x, h.y] for h in hits])
            fit = fit_track_conformal(xy, detector.field_b)
            assert fit.a == pytest.approx(t.params.a, rel=1e-3, abs=1e-4)
            assert fit.b == pytest.approx(t.params.b, rel=1e-3, abs=1e-4)
            assert abs(fit.eps_t) == pytest.approx(t.params.eps_t, rel=5e-2)


class TestValidateEvent:
    @pytest.mark.parametrize("damage", [
        lambda e: replace(e, tracks=e.tracks[1:]),
        lambda e: replace(e, tracks=e.tracks + (
            replace(e.tracks[0], particle_id=99),)),
        lambda e: replace(e, tracks=e.tracks + e.tracks[:1]),
        lambda e: replace(e, tracks=e.tracks + (
            replace(e.tracks[0], particle_id=0),))],
        ids=["hits-without-track", "track-without-hits", "track-repeated",
             "track-id-zero"])
    def test_track_ids_are_the_hit_particle_ids(self, detector, damage):
        e = generate_event(detector, GenConfig(n_tracks=3), seed=7)
        validate_event(e)
        with pytest.raises(ConsistencyError):
            validate_event(damage(e))


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


def write_trackml(tmp_path, hits=HITS_CSV, truth=TRUTH_CSV,
                  particles=PARTICLES_CSV):
    paths = []
    for name, text in (("hits.csv", hits), ("truth.csv", truth),
                       ("particles.csv", particles)):
        p = tmp_path / name
        p.write_text(text)
        paths.append(p)
    return paths


class TestReadTrackml:
    def test_golden_rows(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        assert len(e.hits) == 3
        h = e.hits[0]
        assert h.hit_id == 1
        assert h.x == pytest.approx(-0.0644)
        assert h.y == pytest.approx(-0.0072)
        assert h.z == pytest.approx(-0.514)
        assert h.volume == 8 and h.layer == 2
        assert h.particle_id == 101
        assert e.hits[2].particle_id == 0  # noise row

    def test_pt_three_four_five(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        assert len(e.tracks) == 1
        assert e.tracks[0].params.p_t == pytest.approx(5.0)
        assert [h.hit_id for h in e.track_hits()[101]] == [1, 2]

    def test_derived_coordinates(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        h = e.hits[1]
        theta = math.atan2(math.hypot(0.032, 0.0015), h.z)
        assert h.eta == pytest.approx(-math.log(math.tan(theta / 2.0)))
        assert h.phi == pytest.approx(math.atan2(0.0015, 0.032))

    def test_empty_hits(self, tmp_path):
        header = HITS_CSV.splitlines()[0] + "\n"
        truth_header = TRUTH_CSV.splitlines()[0] + "\n"
        e = read_trackml_event(*write_trackml(
            tmp_path, hits=header, truth=truth_header))
        assert e.hits == () and e.tracks == ()

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

    def test_validates(self, tmp_path):
        validate_event(read_trackml_event(*write_trackml(tmp_path)))


class TestApplySelection:
    def test_identity(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        out = apply_selection(e, pt_min=0.0, volumes=None)
        assert out == e

    def test_pt_threshold(self, detector):
        # one event holding a 1 GeV and a 3 GeV track
        from trackseg.events import Event
        low = generate_event(detector, GenConfig(
            n_tracks=1, pt_range=(1.0, 1.0), noise_fraction=0.0,
            hit_smearing_sigma=0.0), seed=2)
        hi = generate_event(detector, GenConfig(
            n_tracks=1, pt_range=(3.0, 3.0), noise_fraction=0.0,
            hit_smearing_sigma=0.0), seed=3)
        shift = max(h.hit_id for h in low.hits)
        hi_hits = tuple(replace(h, hit_id=h.hit_id + shift, particle_id=2)
                        for h in hi.hits)
        hi_track = replace(hi.tracks[0], particle_id=2)
        merged = Event(0, low.hits + hi_hits, (low.tracks[0], hi_track))
        validate_event(merged)
        kept = apply_selection(merged, pt_min=2.0)
        assert {h.particle_id for h in kept.hits} == {2}
        assert len(kept.tracks) == 1
        assert kept.tracks[0].params.p_t == pytest.approx(3.0)

    def test_volume_filter(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        out = apply_selection(e, pt_min=0.0, volumes={8})
        assert all(h.volume == 8 for h in out.hits)
        assert len(out.hits) == 2

    def test_noise_kept_regardless_of_pt(self, tmp_path):
        e = read_trackml_event(*write_trackml(tmp_path))
        out = apply_selection(e, pt_min=100.0, volumes=None)
        assert [h.particle_id for h in out.hits] == [0]
        assert out.tracks == ()

    def test_idempotent_and_monotone(self, detector):
        gen = GenConfig(n_tracks=8, noise_fraction=0.2, hit_smearing_sigma=0.0)
        e = generate_event(detector, gen, seed=12)
        once = apply_selection(e, pt_min=3.0, volumes={0})
        twice = apply_selection(once, pt_min=3.0, volumes={0})
        assert once == twice
        assert len(once.hits) <= len(e.hits)
        validate_event(once)
