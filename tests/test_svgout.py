from __future__ import annotations

import numpy as np
import pytest

from foldspec import eigenfn, spectrum, svgout
from foldspec.domains import TRIANGLE, box, triangle


def _nodal_svg_by_pixels(f: eigenfn.Combo, resolution: int = 200) -> str:
    """Oracle: nodal_svg with each row's sign runs found one pixel at a time."""
    domain = f.domain
    lengths = domain.edge_lengths()
    nx = resolution
    ny = max(8, int(round(resolution * lengths[1] / lengths[0])))
    hx, hy = lengths[0] / nx, lengths[1] / ny
    ax = (np.arange(nx) + 0.5) * hx
    ay = (np.arange(ny) + 0.5) * hy
    vals = eigenfn.eval_on_axes(f, (ax, ay))
    if domain.kind == TRIANGLE:
        vals = np.where(ay[None, :] < ax[:, None], vals, 0.0)
    body = []
    for j in range(ny):
        i = 0
        while i < nx:
            s = np.sign(vals[i, j])
            if s == 0:
                i += 1
                continue
            run = i
            while run < nx and np.sign(vals[run, j]) == s:
                run += 1
            fill = svgout._POS_FILL if s > 0 else svgout._NEG_FILL
            body.append(
                f'<rect x="{i * hx:.6f}" y="{j * hy:.6f}" '
                f'width="{(run - i) * hx:.6f}" height="{hy:.6f}" '
                f'fill="{fill}" stroke="none"/>'
            )
            i = run
    body.append(svgout._outline(domain))
    return svgout._svg(lengths[0], lengths[1], body)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("kind", ["triangle", "box2"])
def test_nodal_svg_matches_the_pixel_loop(kind, bc):
    # the all-member combo of each of the first 25 levels below 120
    dom = triangle(bc) if kind == "triangle" else box(2, bc)
    levels = spectrum.build_index(dom, 120).levels[:25]
    assert len(levels) == 25
    for lv in levels:
        f = eigenfn.combo(dom, [((-1) ** i * (i + 1.0), m) for i, m in enumerate(lv.members)])
        assert svgout.nodal_svg(f) == _nodal_svg_by_pixels(f), lv.members
