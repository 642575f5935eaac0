import base64
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from trackseg.events import (HIT_COLUMNS, TRACK_COLUMNS, DetectorConfig,
                             GenConfig, HitTable, TrackTable, generate_event)
from trackseg.graphs import (EDGE_COLUMNS, TARGET_COLUMNS, DbscanParams,
                             build_graph)
from trackseg.harness.io import (CANDIDATE_COLUMNS, ELLIPSE_COLUMNS,
                                 MEMBER_COLUMNS, VERTEX_COLUMNS)
from trackseg.jsonio import DTYPES


@pytest.fixture
def detector():
    return DetectorConfig()


def make_training_graph(seed=0, n_tracks=5, noise_fraction=0.1,
                        smearing=2e-4, event_id=0):
    det = DetectorConfig()
    gen = GenConfig(n_tracks=n_tracks, noise_fraction=noise_fraction,
                    hit_smearing_sigma=smearing)
    event = generate_event(det, gen, seed=seed, event_id=event_id)
    return event, build_graph(event, DbscanParams())


def hit_table(rows, volume=None):
    """The HitTable of hit rows (hit_id, x, y, z, layer, particle_id), in
    volume 0 unless `volume` lists each hit's."""
    return HitTable(*(list(zip(*rows)) or [()] * 6),
                    volume=[0] * len(rows) if volume is None else volume)


def track_table(rows):
    """The TrackTable of track rows (particle_id, pt, eps_t, a, b)."""
    return TrackTable(*(list(zip(*rows)) or [()] * 5))


def track_rows(tracks):
    """The rows (particle_id, pt, eps_t, a, b) of a TrackTable."""
    return list(zip(*(getattr(tracks, name).tolist()
                      for name in TRACK_COLUMNS)))


def hit_at(hit_id, eta, phi, layer=0, particle_id=0, rho=0.1):
    """The row of a hit at transverse radius rho whose derived eta and
    phi are the given ones, up to rounding."""
    return (hit_id, rho * math.cos(phi), rho * math.sin(phi),
            rho * math.sinh(eta), layer, particle_id)


@pytest.fixture
def toy_graph():
    return make_training_graph(seed=11)[1]


def rng(seed=0):
    return np.random.default_rng(seed)


# any JSON value, NaN and infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


def doc_paths(node, prefix=()):
    """Every key and index path into a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from doc_paths(child, prefix + (key,))


def set_at(doc, path, value):
    *parents, key = path
    for step in parents:
        doc = doc[step]
    doc[key] = value


# the kind of every column of an event, graph or prediction document, by
# name
COLUMN_KINDS = {**HIT_COLUMNS, **TRACK_COLUMNS, **TARGET_COLUMNS,
                **EDGE_COLUMNS, **VERTEX_COLUMNS, **ELLIPSE_COLUMNS,
                **CANDIDATE_COLUMNS, **MEMBER_COLUMNS}
TABLES = ("hits", "tracks", "vertices", "edges", "targets", "ellipses",
          "candidates", "members")


def decoded(doc):
    """A copy of an event, graph or prediction document whose binary
    columns are lists of their values, for `encoded` to store again after
    an edit."""
    return {key: {name: np.frombuffer(base64.b64decode(data), tag).tolist()
                  for name, (tag, data) in value.items()}
            if key in TABLES else value for key, value in doc.items()}


def _stored(name, column):
    """A list column as a writer with that list would store it: numbers
    of the column's kind under its dtype, an int column with a float in
    it under "<f8" (a wrong tag); anything else (null, bool, text, an int
    beyond int64, a column no schema names) cannot be stored and stays a
    list, a column that is not a [dtype, base64] pair."""
    if not isinstance(column, list) or name not in COLUMN_KINDS or not all(
            type(v) in (int, float) for v in column):
        return column
    kind = float if any(type(v) is float for v in column) else \
        COLUMN_KINDS[name]
    try:
        data = np.asarray(column, DTYPES[kind])
    except OverflowError:
        return column
    return [DTYPES[kind], base64.b64encode(data.tobytes()).decode()]


def encoded(view):
    """The document `view` (from `decoded`, maybe edited) stores."""
    return {key: {name: _stored(name, column)
                  for name, column in value.items()}
            if key in TABLES and isinstance(value, dict) else value
            for key, value in view.items()}
