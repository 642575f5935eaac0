import numpy as np
import pytest

from trackseg.events import DetectorConfig, GenConfig, generate_event
from trackseg.graphs import DbscanParams, assign_vertex_targets, \
    build_graph, truth_ellipses


@pytest.fixture
def detector():
    return DetectorConfig()


def make_training_graph(seed=0, n_tracks=5, noise_fraction=0.1,
                        smearing=2e-4, event_id=0):
    det = DetectorConfig()
    gen = GenConfig(n_tracks=n_tracks, noise_fraction=noise_fraction,
                    hit_smearing_sigma=smearing)
    event = generate_event(det, gen, seed=seed, event_id=event_id)
    graph = build_graph(event, DbscanParams())
    assign_vertex_targets(graph, truth_ellipses(event))
    return event, graph


@pytest.fixture
def toy_graph():
    return make_training_graph(seed=11)[1]


def rng(seed=0):
    return np.random.default_rng(seed)
