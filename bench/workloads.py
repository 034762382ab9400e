"""The three benchmark workloads and the checks on their outputs.

Each workload is built from a seed, which moves every cutoff inside a narrow
band (seed 0 keeps the stated sizes exactly). Expected sizes are computed
here, outside the timed region, by an enumeration that does not use
foldspec: plain integer arithmetic and numpy, with mpmath deciding the rare
points that floats cannot place relative to the cutoff. `run()` performs one
repetition and checks its outputs inside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from foldspec import cli, eigenfn, folding, nodal, spectrum
from foldspec.domains import box, triangle
from foldspec.errors import FoldspecError

# Relative half-width of the band the seed moves each cutoff in. It stays
# inside the range where the lattice bounding boxes that foldspec scans keep
# their size (box6@80: 79.376..80.64; box5@120: 118.8..121.0), so a seed
# changes the inputs without stepping the amount of work by up to 15%.
BAND = 0.005

# sha256 of the CLI stdout at the default sizes, recorded from the seed commit
DIGESTS = {
    ("verdicts", "--domain", "triangle", "--cutoff", "50000", "--format", "json"):
        "aec7cb75c12ceafff81a4b41c4045bbf2025beabec8e72101b88d6f242f30f06",
    ("spectrum", "--domain", "box", "--dim", "5", "--cutoff", "120", "--points",
     "--format", "json"):
        "3bcbed601b0f1d74b02dfefc5bdfcbce1b49f8a3520e88ae88b0557fe87f52a1",
    ("spectrum", "--domain", "box", "--dim", "6", "--cutoff", "80", "--points",
     "--format", "json"):
        "718637fdbcc9c5fbcb01e50c761fb53e9cdb20a1348c234e677d7092311f7be2",
}

# triangle frame-partition sizes M(k), k = 9..13, recorded from the seed commit
TRIANGLE_M = {9: 153, 10: 289, 11: 561, 12: 1089, 13: 2145}

SHARP_TRIANGLE = [1, 2, 3, 4, 6]


def shifted(base: int, seed: int) -> Fraction:
    """base moved by a seed-determined share in [-BAND, BAND]; seed 0 keeps it."""
    if seed == 0:
        return Fraction(base)
    share = random.Random(seed).uniform(-BAND, BAND)
    return Fraction(round(base * (1 + share) * 100), 100)


# ---------------------------------------------------------------------------
# independent lattice enumeration (no foldspec)


def _ring_len(n: int) -> int:
    return n if n % 2 else n // 2


def _coeff_rows(n: int, pts: np.ndarray) -> np.ndarray:
    """Coefficient vectors over {2^(j/r)} of box eigenvalues sum(gamma^(2j) m_j^2)."""
    r = _ring_len(n)
    rows = np.zeros((len(pts), r), dtype=np.int64)
    for j in range(n):
        q, rem = divmod(2 * j if n % 2 else j, r)
        rows[:, rem] += (pts[:, j] ** 2) << q
    return rows


def _exactly_below(row: np.ndarray, cutoff: Fraction) -> bool:
    r = len(row)
    diff = [int(c) * cutoff.denominator for c in row]
    diff[0] -= cutoff.numerator
    if not any(diff[1:]):
        return diff[0] < 0
    with mpmath.workdps(100):
        total = sum(d * mpmath.mpf(2) ** (mpmath.mpf(j) / r) for j, d in enumerate(diff))
    return total < 0


@dataclass(frozen=True)
class LatticeStats:
    points: int  # eigenvalues below the cutoff, with multiplicity
    levels: int  # distinct eigenvalues
    simple_nonzero: int  # levels of multiplicity one, zero excluded


def triangle_stats(cutoff: Fraction) -> LatticeStats:
    counts: dict[int, int] = {}
    for m in range(math.isqrt(math.floor(cutoff)) + 1):
        for k in range(m + 1):
            v = m * m + k * k
            if v < cutoff:
                counts[v] = counts.get(v, 0) + 1
    simple = sum(1 for v, d in counts.items() if d == 1 and v)
    return LatticeStats(sum(counts.values()), len(counts), simple)


def box_stats(n: int, cutoff: Fraction) -> LatticeStats:
    weights = np.array([2.0 ** (2 * j / n) for j in range(n)])
    axes = [np.arange(int(math.sqrt(float(cutoff) / w)) + 2) for w in weights]
    grid = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    vals = (grid.astype(float) ** 2) @ weights
    c = float(cutoff)
    near = np.abs(vals - c) <= 1e-9 * c
    keep = (vals < c) & ~near
    rows = _coeff_rows(n, grid)
    for i in np.flatnonzero(near):
        keep[i] = _exactly_below(rows[i], cutoff)
    _, counts = np.unique(rows[keep], axis=0, return_counts=True)
    zero = int(np.all(rows[keep] == 0, axis=1).any())
    return LatticeStats(int(keep.sum()), len(counts), int((counts == 1).sum()) - zero)


# ---------------------------------------------------------------------------
# one repetition's record


@dataclass
class Rep:
    start: float = 0.0  # time.perf_counter() at the first call
    end: float = 0.0  # ... and once the output is checked
    units: int = 0  # work units completed (the items of items_per_s)
    attempted: int = 0
    failed: list[str] = field(default_factory=list)  # inputs whose operation raised
    check_failures: list[str] = field(default_factory=list)
    cases: list = field(default_factory=list)  # (start, end) per case; None if it raised
    output: dict = field(default_factory=dict)  # facts read from the outputs


def call_cli(argv: list[str]) -> tuple[int, str]:
    """foldspec's CLI entry point, in process, with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _digest_problem(argv: list[str], text: str) -> str | None:
    want = DIGESTS.get(tuple(argv))
    if want is None:
        return None
    got = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return None if got == want else f"{' '.join(argv)}: sha256 {got[:12]} != {want[:12]}"


def _positions_problem(rows: list[dict]) -> str | None:
    position = 1
    for row in rows:
        if row["position"] != position:
            return f"position {row['position']} where {position} was due"
        position += row["multiplicity"]
    return None


# ---------------------------------------------------------------------------
# workloads


class VerdictsTriangle:
    """`foldspec verdicts --domain triangle --cutoff 50000 --format json`."""

    name = "verdicts-triangle"
    unit_name = "levels classified"

    def __init__(self, seed: int, cutoff: int = 50000):
        self.cutoff = shifted(cutoff, seed)
        self.argv = ["verdicts", "--domain", "triangle", "--cutoff", str(self.cutoff),
                     "--format", "json"]
        self.expect = triangle_stats(self.cutoff)

    def run(self) -> Rep:
        rep = Rep(attempted=1, start=time.perf_counter())
        rc, text = call_cli(self.argv)
        if rc != 0:
            rep.failed.append(" ".join(self.argv))
        else:
            problems = self.check(text, rep)
            rep.check_failures.extend(problems)
            if not problems:
                rep.units = self.expect.levels
        rep.end = time.perf_counter()
        rep.cases.append((rep.start, rep.end) if rc == 0 else None)
        return rep

    def check(self, text: str, rep: Rep) -> list[str]:
        problems = [p for p in (_digest_problem(self.argv, text),) if p]
        rows = json.loads(text)
        if len(rows) != self.expect.levels:
            problems.append(f"{len(rows)} levels, expected {self.expect.levels}")
        total = sum(row["multiplicity"] for row in rows)
        if total != self.expect.points:
            problems.append(f"{total} eigenvalues, expected {self.expect.points}")
        values = [int(row["value"]) for row in rows]
        if any(a >= b for a, b in zip(values, values[1:])):
            problems.append("levels are not in increasing order")
        problems.extend(p for p in (_positions_problem(rows),) if p)
        sharp = [row["position"] for row in rows if row["sharp"]]
        if sharp != SHARP_TRIANGLE:
            problems.append(f"sharp positions {sharp}, expected {SHARP_TRIANGLE}")
        bare = [row["position"] for row in rows if not row["sharp"] and not row["witness"]]
        if bare:
            problems.append(f"non-sharp levels without a witness at {bare[:5]}")
        reasons: dict[str, int] = {}
        for row in rows:
            reasons[row["reason"]] = reasons.get(row["reason"], 0) + 1
        rep.output["reasons"] = reasons
        rep.output["witness_points"] = sum(
            row["witness"].get("reference_size", 0) for row in rows
        )
        return problems


class SpectrumBox:
    """`foldspec spectrum --domain box --points --format json` at two sizes."""

    name = "spectrum-box"
    unit_name = "eigenvalues indexed"

    def __init__(self, seed: int, sizes: tuple[tuple[int, int], ...] = ((5, 120), (6, 80))):
        self.calls = []
        for n, cutoff in sizes:
            c = shifted(cutoff, seed)
            argv = ["spectrum", "--domain", "box", "--dim", str(n), "--cutoff", str(c),
                    "--points", "--format", "json"]
            self.calls.append((n, argv, box_stats(n, c)))

    def run(self) -> Rep:
        rep = Rep(start=time.perf_counter())
        for n, argv, expect in self.calls:
            rep.attempted += 1
            c0 = time.perf_counter()
            rc, text = call_cli(argv)
            if rc != 0:
                rep.failed.append(" ".join(argv))
                rep.cases.append(None)
                continue
            problems = self.check(n, argv, expect, text)
            rep.cases.append((c0, time.perf_counter()))
            rep.check_failures.extend(problems)
            if not problems:
                rep.units += expect.points
        rep.end = time.perf_counter()
        return rep

    @staticmethod
    def check(n: int, argv: list[str], expect: LatticeStats, text: str) -> list[str]:
        label = f"box{n}"
        problems = [p for p in (_digest_problem(argv, text),) if p]
        rows = json.loads(text)
        if len(rows) != expect.levels:
            problems.append(f"{label}: {len(rows)} levels, expected {expect.levels}")
        members = [m for row in rows for m in row["members"]]
        if len(members) != expect.points:
            problems.append(f"{label}: {len(members)} eigenvalues, expected {expect.points}")
        if len(set(map(tuple, members))) != len(members):
            problems.append(f"{label}: a lattice point is listed twice")
        if any(row["multiplicity"] != len(row["members"]) for row in rows):
            problems.append(f"{label}: multiplicity differs from the member count")
        problems.extend(f"{label}: {p}" for p in (_positions_problem(rows),) if p)
        floats = np.array([row["float"] for row in rows])
        if np.any(np.diff(floats) < 0):
            problems.append(f"{label}: levels are not in increasing order")
        if problems:
            return problems
        # every member's exact eigenvalue is the level's value
        step = 1 if n % 2 else 2
        parsed = np.zeros((len(rows), _ring_len(n)), dtype=np.int64)
        for i, row in enumerate(rows):
            for part in row["value"].split(" + "):
                c, _, g = part.partition("*g^")
                parsed[i, int(g) // step if g else 0] = int(c)
        mult = np.array([row["multiplicity"] for row in rows])
        got = _coeff_rows(n, np.array(members, dtype=np.int64))
        if not np.array_equal(got, np.repeat(parsed, mult, axis=0)):
            problems.append(f"{label}: a member's eigenvalue differs from its level")
        if len({row["value"] for row in rows}) != len(rows):
            problems.append(f"{label}: two levels share a value")
        parity = ["odd" if c % 2 else "even" for c in parsed[:, 0]]
        if parity != [row["parity"] for row in rows]:
            problems.append(f"{label}: wrong parity")
        return problems


class NodalDeficiency:
    """Deficiency bounds against grid nodal counts, plus triangle M(k) at high k."""

    name = "nodal-deficiency"
    unit_name = "cases certified"

    def __init__(
        self,
        seed: int,
        sizes: tuple[tuple[str, int, int], ...] = (
            ("triangle", 2, 400), ("box", 2, 400), ("box", 3, 60)),
        frame_ks: tuple[int, ...] = (9, 10, 11, 12, 13),
    ):
        self.domains = []
        for kind, n, cutoff in sizes:
            c = shifted(cutoff, seed)
            if kind == "triangle":
                self.domains.append((triangle(), c, triangle_stats(c)))
            else:
                self.domains.append((box(n), c, box_stats(n, c)))
        self.frame_ks = frame_ks

    def run(self) -> Rep:
        rep = Rep(start=time.perf_counter())
        for dom, cutoff, expect in self.domains:
            si = spectrum.build_index(dom, cutoff)
            levels = [lv for lv in si.levels if lv.multiplicity == 1 and not lv.value.is_zero()]
            if len(levels) != expect.simple_nonzero:
                rep.check_failures.append(
                    f"{dom.label()}: {len(levels)} simple levels, expected {expect.simple_nonzero}"
                )
            for lv in levels:
                self._case(rep, si, lv)
        for k in self.frame_ks:
            self._frame_case(rep, k)
        rep.end = time.perf_counter()
        return rep

    def _case(self, rep: Rep, si, lv) -> None:
        member = lv.members[0]
        label = f"{si.domain.label()} {tuple(member)}"
        rep.attempted += 1
        c0 = time.perf_counter()
        try:
            report = nodal.deficiency_bound(si, lv.value)
            nu = nodal.count_grid(eigenfn.basis_fn(si.domain, member)).count
        except FoldspecError as exc:
            rep.failed.append(f"{label}: {type(exc).__name__}")
            rep.cases.append(None)
            return
        delta = si.counting(lv.value).position - nu
        ok = 0 <= report.bound <= delta
        rep.cases.append((c0, time.perf_counter()))
        if ok:
            rep.units += 1
        else:
            rep.check_failures.append(f"{label}: bound {report.bound}, delta {delta}")

    def _frame_case(self, rep: Rep, k: int) -> None:
        argv = ["deficiency", "--domain", "triangle", "--lambda", str(2**k)]
        rep.attempted += 1
        c0 = time.perf_counter()
        rc, text = call_cli(argv)
        if rc != 0:
            rep.failed.append(" ".join(argv))
            rep.cases.append(None)
            return
        report = json.loads(text)
        rep.cases.append((c0, time.perf_counter()))
        want = TRIANGLE_M.get(k)
        if (report["core"], report["k"]) != ("1", k) or report["bound"] < 0:
            rep.check_failures.append(f"{' '.join(argv)}: report {report}")
        elif want is not None and report["partition_size"] != want:
            rep.check_failures.append(
                f"triangle M({k}) = {report['partition_size']}, expected {want}"
            )
        else:
            rep.units += 1


WORKLOADS = {w.name: w for w in (VerdictsTriangle, SpectrumBox, NodalDeficiency)}


def reset_cold_state() -> None:
    """State a fresh CLI process starts with: an empty partition-count cache."""
    folding.partition_count.cache_clear()

