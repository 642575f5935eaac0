import math

import numpy as np
import pytest

from trackseg.angles import circular_mean, wrap_half_pi, wrap_phi, wrap_theta
from trackseg.ellipses import DELTA_THETA, THETA_M, decode_box
from trackseg.events import hit_from_xyz


# a plain modulo rounds each of these inputs up to the excluded bound
@pytest.mark.parametrize("wrap, angle, expected", [
    (wrap_phi, -1e-20, 0.0),
    (wrap_theta, -1e-20, 0.0),
    (wrap_half_pi, np.nextafter(-0.5 * math.pi, -10.0), -0.5 * math.pi),
    (lambda a: circular_mean([a]), -1e-20, 0.0),
    (lambda a: circular_mean([a], period=math.pi), -1e-20, 0.0)],
    ids=["wrap_phi", "wrap_theta", "wrap_half_pi", "circular_mean",
         "circular_mean_pi"])
def test_wrap_never_returns_the_excluded_bound(wrap, angle, expected):
    assert wrap(angle) == expected


def test_wrap_keeps_array_shape():
    out = wrap_phi(np.array([-1e-20, 1.0, 7.0]))
    assert out.tolist() == [0.0, 1.0, 7.0 - 2.0 * math.pi]


def test_decode_box_at_the_theta_fold():
    e = decode_box([0, 0, 0, 0, np.nextafter(DELTA_THETA / THETA_M, 0)],
                   (0.0, 1.0))
    assert e.theta == 0.0


def test_hit_just_below_the_x_axis_has_phi_zero():
    assert hit_from_xyz(1, 1.0, -1e-20, 0.5, 0, 0).phi == 0.0
