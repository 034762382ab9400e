"""Acceptance gate: every headline criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; `foldspec selftest` prints the same results.
"""

from __future__ import annotations

import numpy as np
import pytest

from foldspec import acceptance, folding
from foldspec.acceptance import CRITERIA
from foldspec.domains import TRIANGLE


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.cid for c in CRITERIA])
def test_criterion(criterion):
    result = criterion.run()
    status = "PASS" if result.ok else "FAIL"
    print(f"[{status}] criterion {criterion.cid}: {criterion.name} -- {result.detail}")
    assert result.ok, f"criterion {criterion.cid} ({criterion.name}): {result.detail}"


# -- criterion 7 catches broken quantum-number maps -------------------------------

_unfold, _fold = folding.unfold_rows, folding.fold_rows


def box_unfold_swapping_two_axes(dom, m):
    up = _unfold(dom, m)
    return up if dom.kind == TRIANGLE else up[:, [*range(dom.n - 2), dom.n - 1, dom.n - 2]]


def triangle_unfold_off_the_domain(dom, m):
    """(a + b, b - a): the value of (a + b, a - b), but not a quantum number."""
    if dom.kind != TRIANGLE:
        return _unfold(dom, m)
    return np.stack([m[:, 0] + m[:, 1], m[:, 1] - m[:, 0]], axis=1)


def box_fold_not_inverting(dom, m):
    down = _fold(dom, m)
    return down if dom.kind == TRIANGLE else np.concatenate([m[:, :1] // 2, m[:, 1:]], axis=1)


def identity(dom, m):
    return m.copy()


@pytest.mark.parametrize(
    "unfold,fold,detail",
    [
        (box_unfold_swapping_two_axes, _fold,
         "box n=2: value(unfold((0, 1))) is not gamma^2 * value"),
        (triangle_unfold_off_the_domain, _fold,
         "triangle: unfold((1, 0)) = (1, -1) is not a quantum number"),
        (_unfold, box_fold_not_inverting, "box n=2: fold(unfold((0, 1))) != (0, 1)"),
        (identity, identity, "triangle: value(unfold((1, 0))) is not gamma^2 * value"),
    ],
)
def test_folding_criterion_names_the_domain_and_row_of_a_broken_map(
    monkeypatch, unfold, fold, detail
):
    monkeypatch.setattr(folding, "unfold_rows", unfold)
    monkeypatch.setattr(folding, "fold_rows", fold)
    result = acceptance.criterion_folding_algebra()
    assert (result.ok, result.detail) == (False, detail)
