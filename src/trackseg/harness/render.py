"""Event display: eta-phi scatter of hits with ellipse outlines, written
as a standalone SVG.  Output bytes are deterministic for fixed input."""

from __future__ import annotations

import math

from ..events import Event
from ..jsonio import write_atomic

WIDTH, HEIGHT = 900, 640
MARGIN = 60.0
NOISE_COLOR = "#999999"


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _particle_color(rank: int) -> str:
    hue = (rank * 137.508) % 360.0
    return f"hsl({hue:.1f},70%,45%)"


def render_event_svg(event: Event, shapes, path) -> None:
    """Write the eta-phi view of an event: one marker per hit (colored by
    truth particle, noise gray) and one outline per ellipse of `shapes`,
    parameter rows (eta_c, phi_c, a, b, theta), (n, 5)."""
    eta, phi, pids = (column.tolist() for column in (
        event.hits.eta, event.hits.phi, event.hits.particle_id))
    etas = eta + [eta_c for eta_c, *_ in shapes]
    if etas:
        lo, hi = min(etas), max(etas)
        pad = 0.1 * max(hi - lo, 0.5)
        eta_min, eta_max = lo - pad, hi + pad
    else:
        eta_min, eta_max = -3.0, 3.0
    phi_min, phi_max = 0.0, 2.0 * math.pi

    sx = (WIDTH - 2 * MARGIN) / (eta_max - eta_min)
    sy = (HEIGHT - 2 * MARGIN) / (phi_max - phi_min)

    def px(eta: float) -> float:
        return MARGIN + (eta - eta_min) * sx

    def py(phi: float) -> float:
        return HEIGHT - MARGIN - (phi - phi_min) * sy

    pid_order = sorted(set(pids) - {0})
    color = {pid: _particle_color(i) for i, pid in enumerate(pid_order)}

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{_fmt(MARGIN)}" y1="{_fmt(HEIGHT - MARGIN)}" '
        f'x2="{_fmt(WIDTH - MARGIN)}" y2="{_fmt(HEIGHT - MARGIN)}" '
        f'stroke="black"/>',
        f'<line x1="{_fmt(MARGIN)}" y1="{_fmt(MARGIN)}" '
        f'x2="{_fmt(MARGIN)}" y2="{_fmt(HEIGHT - MARGIN)}" stroke="black"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(HEIGHT - MARGIN / 4)}" '
        f'text-anchor="middle" font-size="16">eta</text>',
        f'<text x="{_fmt(MARGIN / 3)}" y="{_fmt(HEIGHT / 2)}" '
        f'text-anchor="middle" font-size="16" '
        f'transform="rotate(-90 {_fmt(MARGIN / 3)} {_fmt(HEIGHT / 2)})">'
        f'phi</text>',
        f'<text x="{_fmt(MARGIN)}" y="{_fmt(HEIGHT - MARGIN / 2)}" '
        f'text-anchor="middle" font-size="12">{_fmt(eta_min)}</text>',
        f'<text x="{_fmt(WIDTH - MARGIN)}" y="{_fmt(HEIGHT - MARGIN / 2)}" '
        f'text-anchor="middle" font-size="12">{_fmt(eta_max)}</text>',
        f'<text x="{_fmt(MARGIN / 2)}" y="{_fmt(HEIGHT - MARGIN)}" '
        f'text-anchor="middle" font-size="12">0</text>',
        f'<text x="{_fmt(MARGIN / 2)}" y="{_fmt(MARGIN)}" '
        f'text-anchor="middle" font-size="12">{_fmt(phi_max)}</text>',
    ]

    for hit_eta, hit_phi, pid in zip(eta, phi, pids):
        fill = color.get(pid, NOISE_COLOR)
        lines.append(f'<circle cx="{_fmt(px(hit_eta))}" '
                     f'cy="{_fmt(py(hit_phi))}" r="3" fill="{fill}"/>')

    for eta_c, phi_c, a, b, theta in shapes:
        # the scale() flip makes screen y increase downward, so the data
        # space rotation angle carries through unnegated
        deg = math.degrees(theta)
        transform = (f'translate({_fmt(px(eta_c))} {_fmt(py(phi_c))}) '
                     f'scale({_fmt(sx)} {_fmt(-sy)}) rotate({_fmt(deg)})')
        lines.append(
            f'<g transform="{transform}"><ellipse rx="{_fmt(a)}" '
            f'ry="{_fmt(b)}" fill="none" stroke="#1f5fbf" '
            f'stroke-width="1.5" vector-effect="non-scaling-stroke"/></g>')

    lines.append("</svg>")
    write_atomic(path, "\n".join(lines) + "\n")
