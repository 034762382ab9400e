"""Minimal SVG 1.1 emission for frames and nodal patterns (planar domains)."""

from __future__ import annotations

import math

import numpy as np

from .domains import TRIANGLE, Domain
from .eigenfn import Combo, eval_on_axes
from .errors import DomainError
from .folding import KFrame

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'
_POS_FILL = "#d95f02"
_NEG_FILL = "#7570b3"
# cells of a nodal pattern along the first axis
RESOLUTION = 200


def _svg(width: float, height: float, body: list[str]) -> str:
    scale = 360.0 / width
    w, h = width * scale, height * scale
    lines = [
        _HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w:.1f}" height="{h:.1f}" viewBox="0 0 {width:.6f} {height:.6f}">',
        # flip the y axis so the origin sits at the lower left
        f'<g transform="translate(0,{height:.6f}) scale(1,-1)">',
        *body,
        "</g>",
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def _outline(domain: Domain) -> str:
    if domain.kind == TRIANGLE:
        p = math.pi
        pts = f"0,0 {p:.6f},0 {p:.6f},{p:.6f}"
    else:
        l1, l2 = domain.edge_lengths()
        pts = f"0,0 {l1:.6f},0 {l1:.6f},{l2:.6f} 0,{l2:.6f}"
    return (
        f'<polygon points="{pts}" fill="none" stroke="black" '
        f'stroke-width="0.02"/>'
    )


def frame_svg(frame: KFrame) -> str:
    """The k-frame drawn inside the domain outline (triangle or planar box)."""
    domain = frame.domain
    if domain.kind != TRIANGLE and domain.n != 2:
        raise DomainError("frame SVG output covers planar domains only")
    body = [_outline(domain)]
    if domain.kind == TRIANGLE:
        width = height = math.pi
        for seg in frame.facets:
            (ax, ay), (bx, by) = seg.floats()
            body.append(
                f'<line x1="{ax:.6f}" y1="{ay:.6f}" x2="{bx:.6f}" y2="{by:.6f}" '
                f'stroke="black" stroke-width="0.015"/>'
            )
    else:
        lengths = domain.edge_lengths()
        width, height = lengths
        for slab in frame.facets:
            c = float(slab.frac) * lengths[slab.axis]
            if slab.axis == 0:
                body.append(
                    f'<line x1="{c:.6f}" y1="0" x2="{c:.6f}" y2="{height:.6f}" '
                    f'stroke="black" stroke-width="0.015"/>'
                )
            else:
                body.append(
                    f'<line x1="0" y1="{c:.6f}" x2="{width:.6f}" y2="{c:.6f}" '
                    f'stroke="black" stroke-width="0.015"/>'
                )
    return _svg(width, height, body)


def nodal_svg(f: Combo) -> str:
    """Sign pattern of a planar eigenfunction, one colour per sign."""
    domain = f.domain
    if domain.coords != 2:
        raise DomainError("nodal SVG output covers planar domains only")
    lengths = domain.edge_lengths()
    nx = RESOLUTION
    ny = max(8, int(round(RESOLUTION * lengths[1] / lengths[0])))
    hx, hy = lengths[0] / nx, lengths[1] / ny
    ax = (np.arange(nx) + 0.5) * hx
    ay = (np.arange(ny) + 0.5) * hy
    vals = eval_on_axes(f, (ax, ay))
    if domain.kind == TRIANGLE:
        vals = np.where(ay[None, :] < ax[:, None], vals, 0.0)
    # one rect per maximal run of one nonzero sign along each row j: a run
    # starts at each sign change and at each row start, and lasts to the next
    sign = np.sign(vals.T).ravel()
    new = np.ones(sign.size, dtype=bool)
    np.not_equal(sign[1:], sign[:-1], out=new[1:])
    new[::nx] = True
    start = np.flatnonzero(new)
    width = np.diff(start, append=sign.size)
    run = sign[start] != 0
    row, col = divmod(start[run], nx)
    body = [
        f'<rect x="{i * hx:.6f}" y="{j * hy:.6f}" '
        f'width="{w * hx:.6f}" height="{hy:.6f}" '
        f'fill="{_POS_FILL if s > 0 else _NEG_FILL}" stroke="none"/>'
        for j, i, w, s in zip(row.tolist(), col.tolist(), width[run].tolist(),
                              sign[start[run]].tolist())
    ]
    body.append(_outline(domain))
    return _svg(lengths[0], lengths[1], body)
