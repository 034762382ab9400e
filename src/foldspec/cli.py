"""Command-line front end.

Subcommands: spectrum, verdicts, nodal, frame, eval, checksym, checkframe,
deficiency, dirichlet-check, selftest.  Output is deterministic for a fixed
invocation: ordering is exact-value order and floats are emitted via repr.
The spectrum and verdict row lists are streamed to text, one template per
row, by a small writer whose JSON is byte-identical to json.dumps(rows,
indent=2); spectrum rows come from the index's columns, each encoded once,
their members (also the CSV's) filled into one %-template per member count,
and verdict rows, of either domain, from the verdict table's columns, each
witness filled into one %-template per reason and member count.  Their CSV
header comes from the row schema, so an empty result prints the header
alone.  Other JSON goes through json.dumps.  checksym and checkframe decide
exactly from the quantum number, in any box dimension; checkframe names the
first facet where the function does not vanish, if there is one.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction

import numpy as np

from . import algebra, courant, eigenfn, folding, nodal, qlattice, spectrum, svgout
from .algebra import AlgebraicValue
from .domains import DIRICHLET, NEUMANN, Domain, box, triangle
from .errors import ConsistencyError, DomainError, FoldspecError


def _parse_domain(args: argparse.Namespace) -> Domain:
    bc = getattr(args, "bc", NEUMANN)
    if args.domain == "triangle":
        if args.dim != 2:
            raise DomainError(f"--dim {args.dim} does not apply: the triangle is planar")
        return triangle(bc)
    return box(args.dim, bc)


def _parse_cutoff(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"invalid cutoff {text!r}: {exc}")


def _parse_qn(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise SystemExit(f"invalid quantum number {text!r}; expected like 2,1")


def _parse_value(domain: Domain, text: str) -> AlgebraicValue:
    """A spectral value: either one integer or the full coefficient vector."""
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise SystemExit(f"invalid eigenvalue {text!r}; expected like 12 or 1,0")
    if len(parts) == 1:
        return algebra.integer_value(domain.ring, parts[0])
    return AlgebraicValue(domain.ring, tuple(parts))


_PI_FORM = re.compile(r"(?P<c>[^/]*?)pi(?:/(?P<d>.*))?")


def _parse_coordinate(part: str) -> float:
    """A coordinate: a float, or [c]pi[/d] with floats c and d, as in pi,
    pi/2, 3pi/4 and 0.5pi; anything else raises ValueError."""
    form = _PI_FORM.fullmatch(part.strip())
    if form is None:
        return float(part)
    c, d = form.group("c", "d")
    return math.pi * (float(c) if c else 1.0) / (1.0 if d is None else float(d))


def _parse_point(text: str) -> tuple[float, ...]:
    try:
        return tuple(_parse_coordinate(p) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"invalid point {text!r}; expected like 1.2,0.5 or pi/2,0")


def _emit(args: argparse.Namespace, payload: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


_json_str = json.encoder.encode_basestring_ascii


def _json_floats(xs: list[float]) -> list[str]:
    """Each float of xs as json.dumps writes it, in one encoder call."""
    return json.dumps(xs)[1:-1].split(", ") if xs else []


def _json_list(rows: Iterable[str]) -> str:
    """The written rows as one JSON list, as json.dumps(..., indent=2) + "\n"
    writes it."""
    text = ",\n".join(rows)
    return f"[\n{text}\n]\n" if text else "[]\n"


def _json_field(obj, compact: bool) -> str:
    """obj as json.dumps writes it, compactly or with indent 2 as the value
    of a row's field."""
    return json.dumps(obj) if compact else json.dumps(obj, indent=2).replace("\n", "\n    ")


def _spectrum_json(columns: Sequence[Sequence]) -> str:
    """json.dumps([dict(zip(fields, row)) for row in zip(*columns)], indent=2)
    + "\n", byte for byte, for columns from _spectrum_columns (fields
    _SPECTRUM_FIELDS, plus "members" if eight); each is encoded once."""
    position, value, flt, multiplicity, parity, core, k, *members = columns
    tail = [f',\n    "members": {m}' for m in members[0]] if members else [""] * len(position)
    encoded = zip(position, map(_json_str, value), _json_floats(flt), multiplicity,
                  map(_json_str, parity), ["null" if c is None else _json_str(c) for c in core],
                  ["null" if i is None else i for i in k], tail)
    return _json_list([
        f'  {{\n    "position": {p},\n    "value": {v},\n    "float": {f},\n'
        f'    "multiplicity": {d},\n    "parity": {a},\n    "odd_core": {c},\n'
        f'    "k": {i}{t}\n  }}'
        for p, v, f, d, a, c, i, t in encoded
    ])


def _verdicts_json(columns: Sequence[Sequence]) -> str:
    """json.dumps([dict(zip(courant.VERDICT_FIELDS, row)) for row in
    zip(*columns)], indent=2) + "\n", byte for byte, for columns from
    _verdict_columns whose witness w is already written as
    json.dumps(w, indent=2) writes it as the value of a row's field; each
    column is encoded once."""
    position, value, flt, multiplicity, parity, core, k, sharp, reason, nu, witness = columns
    encoded = zip(position, map(_json_str, value), _json_floats(flt), multiplicity,
                  map(_json_str, parity), map(_json_str, core), k,
                  ["true" if s else "false" for s in sharp], map(_json_str, reason),
                  ["null" if n is None else n for n in nu], witness)
    return _json_list([
        f'  {{\n    "position": {p},\n    "value": {v},\n    "float": {f},\n'
        f'    "multiplicity": {d},\n    "parity": {a},\n    "core": {c},\n'
        f'    "k": {i},\n    "sharp": {s},\n    "reason": {r},\n    "nu": {n},\n'
        f'    "witness": {w}\n  }}'
        for p, v, f, d, a, c, i, s, r, n, w in encoded
    ])


def _verdicts_table(rows: Iterable[tuple]) -> str:
    lines = [f"{'pos':>5} {'value':>16} {'d':>2} {'parity':>6} {'sharp':>5}  reason"]
    lines += [
        f"{position:>5} {value:>16} {d:>2} {parity:>6} {str(sharp).lower():>5}  {reason}"
        for position, value, _, d, parity, _, _, sharp, reason, *_ in rows
    ]
    return "\n".join(lines) + "\n"


def _leaves(obj) -> list:
    """The leaves of nested dicts, lists and tuples, in the order json.dumps
    writes them."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if not isinstance(obj, (list, tuple)):
        return [obj]
    return [leaf for item in obj for leaf in _leaves(item)]


def _witness_texts(t: courant.VerdictTable, compact: bool) -> list[str]:
    """Every row's witness as json.dumps writes it, compactly or with indent
    2 as the value of a row's field.  The rows of one reason and member
    count share a %-template: courant.witness over placeholders, written by
    json.dumps, filled from courant.witness over the rows' columns."""
    r = t.region
    texts = ["{}"] * len(t)
    place = ["%d"] * t.points.shape[2]
    for reason in set(t.reason.tolist()):
        of_reason = t.reason == reason
        for count in np.unique(t.multiplicity[of_reason]).tolist():
            rows = np.flatnonzero(of_reason & (t.multiplicity == count))
            w = courant.witness(reason, [place, place], "%d", "%s", [place] * count)
            text = _json_field(w, compact).replace('"%d"', "%d")
            ks, at = np.unique(t.k[rows], return_inverse=True)
            members = r.members[r.offsets[rows][:, None] + np.arange(count)]
            columns = courant.witness(
                reason,
                [tuple(t.points[rows, j].T) for j in (0, 1)],
                t.nu[rows],
                np.array([courant.subdomain_name(k) for k in ks.tolist()])[at],
                [tuple(members[:, j].T) for j in range(count)],
            )
            for i, args in zip(rows.tolist(), zip(*(c.tolist() for c in _leaves(columns)))):
                texts[i] = text % args
    return texts


_PARITY = np.array(["even", "odd"], dtype=object)


def _level_columns(
    n: int, position: np.ndarray, coeffs: np.ndarray, multiplicity: np.ndarray,
    core: np.ndarray, k: np.ndarray,
) -> list[list]:
    """The position, value text, float, multiplicity, parity, odd-core text
    and k of every level of ring n, one list per field, from its columns."""
    return [
        position.tolist(),
        algebra.coeffs_texts(n, coeffs),
        algebra.coeffs_floats(coeffs).tolist(),
        multiplicity.tolist(),
        _PARITY[coeffs[:, 0] % 2].tolist(),
        algebra.coeffs_texts(n, core),
        k.tolist(),
    ]


def _verdict_columns(t: courant.VerdictTable, compact: bool) -> list[list]:
    """One column per field of Verdict.row, every level's, with the witness
    already written (see _witness_texts)."""
    r = t.region
    return [
        *_level_columns(r.domain.ring, t.position, r.coeffs, t.multiplicity, t.core, t.k),
        t.sharp.tolist(),
        t.reason.tolist(),
        [None if nu < 0 else nu for nu in t.nu.tolist()],
        _witness_texts(t, compact),
    ]


def _csv(fields: tuple[str, ...], rows: Iterable[tuple]) -> str:
    """A header of the field names, then the rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands

_SPECTRUM_FIELDS = ("position", "value", "float", "multiplicity", "parity", "odd_core", "k")


def _member_texts(region: qlattice.LatticeRegion, compact: bool) -> list[str]:
    """Every level's members as _json_field writes them: the levels of one
    member count fill one %-template from a (levels, count * coords) block."""
    texts, sizes = [""] * len(region.coeffs), np.diff(region.offsets)
    place = ["%d"] * region.members.shape[1]
    for count in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == count)
        text = _json_field([place] * count, compact).replace('"%d"', "%d")
        block = region.members[region.offsets[rows][:, None] + np.arange(count)]
        for i, args in zip(rows.tolist(), qlattice.tuples(block.reshape(len(rows), -1))):
            texts[i] = text % args
    return texts


def _spectrum_columns(si: spectrum.SpectrumIndex, points: bool, compact: bool) -> list[list]:
    """One column per field of _SPECTRUM_FIELDS, then the member texts if
    points (see _member_texts); every field comes from the index's columns."""
    n = si.domain.ring
    region = si.region
    core, k = spectrum.odd_core_columns(n, region.coeffs)
    columns = _level_columns(n, si.starts + 1, region.coeffs, si.multiplicities, core, k)
    for i in np.flatnonzero(~region.coeffs.any(axis=1)).tolist():
        columns[5][i] = columns[6][i] = None  # the ground state has no odd core
    if points:
        columns.append(_member_texts(region, compact))
    return columns


def _cmd_spectrum(args: argparse.Namespace) -> int:
    domain = _parse_domain(args)
    si = spectrum.build_index(domain, _parse_cutoff(args.cutoff))
    fields = _SPECTRUM_FIELDS + ("members",) if args.points else _SPECTRUM_FIELDS
    columns = _spectrum_columns(si, args.points, compact=args.format == "csv")
    _emit(args, _csv(fields, zip(*columns)) if args.format == "csv" else _spectrum_json(columns))
    return 0


def _cmd_verdicts(args: argparse.Namespace) -> int:
    table = courant.classify(_parse_domain(args), _parse_cutoff(args.cutoff))
    if args.explain is not None:
        _emit(args, _json(courant.explain(table, args.explain).as_dict()))
        return 0
    columns = _verdict_columns(table, compact=args.format == "csv")
    if args.format == "csv":
        _emit(args, _csv(courant.VERDICT_FIELDS, zip(*columns)))
    elif args.format == "table":
        _emit(args, _verdicts_table(zip(*columns)))
    else:
        _emit(args, _verdicts_json(columns))
    return 0


def _cmd_nodal(args: argparse.Namespace) -> int:
    domain = _parse_domain(args)
    qn = _parse_qn(args.qn)
    f = eigenfn.basis_fn(domain, qn)
    result: dict = {"domain": domain.label(), "qn": list(qn), "value": f.value.text()}
    count = nodal.count_auto(domain, qn, resolution=args.grid)
    result.update(
        {
            "nu": count.count,
            "method": count.method,
            "resolution": count.resolution,
            "stable": count.stable,
        }
    )
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svgout.nodal_svg(f))
        result["svg"] = args.svg
    _emit(args, _json(result))
    return 0


def _facet_json(facet: folding.Segment | folding.Slab) -> dict:
    if isinstance(facet, folding.Segment):
        return {
            "a": [str(facet.a[0]), str(facet.a[1])],
            "b": [str(facet.b[0]), str(facet.b[1])],
        }
    return {"axis": facet.axis, "position": str(facet.frac)}


def _cmd_frame(args: argparse.Namespace) -> int:
    domain = _parse_domain(args)
    frame = folding.build_frame(domain, args.k)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svgout.frame_svg(frame))
    if args.json or not args.svg:
        _emit(
            args,
            _json(
                {
                    "domain": domain.label(),
                    "k": args.k,
                    "facet_count": len(frame.facets),
                    "facets": [_facet_json(facet) for facet in frame.facets],
                    "units": "pi (triangle) / edge-length fraction (box)",
                }
            ),
        )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    domain = _parse_domain(args)
    f = eigenfn.basis_fn(domain, _parse_qn(args.qn))
    p = _parse_point(args.at)
    _emit(
        args,
        _json(
            {
                "qn": list(_parse_qn(args.qn)),
                "at": list(p),
                "value": eigenfn.eval_at(f, p),
                "eigenvalue": f.value.text(),
            }
        ),
    )
    return 0


def _cmd_checksym(args: argparse.Namespace) -> int:
    domain = _parse_domain(args)
    f = eigenfn.basis_fn(domain, _parse_qn(args.qn))
    _emit(
        args,
        _json(
            {
                "qn": list(_parse_qn(args.qn)),
                "eigenvalue": f.value.text(),
                "eigenvalue_parity": algebra.parity(f.value),
                "symmetry": eigenfn.symmetry_check(f),
            }
        ),
    )
    return 0


def _cmd_checkframe(args: argparse.Namespace) -> int:
    domain = _parse_domain(args)
    f = eigenfn.basis_fn(domain, _parse_qn(args.qn))
    oc = spectrum.odd_core(f.value)
    failing = eigenfn.frame_vanishing(f, folding.build_frame(domain, oc.k))
    _emit(
        args,
        _json(
            {
                "qn": list(_parse_qn(args.qn)),
                "eigenvalue": f.value.text(),
                "k": oc.k,
                "vanishes": failing is None,
                "failing_facet": None if failing is None else _facet_json(failing[1]),
            }
        ),
    )
    return 0


def _index_through(domain: Domain, value: AlgebraicValue) -> spectrum.SpectrumIndex:
    """The spectrum index up to and including value (cutoff value + 1)."""
    cutoff = AlgebraicValue(value.n, (value.coeffs[0] + 1,) + value.coeffs[1:])
    return spectrum.build_index(domain, cutoff)


def _cmd_deficiency(args: argparse.Namespace) -> int:
    domain = _parse_domain(args)
    value = _parse_value(domain, args.lam)
    si = _index_through(domain, value)
    report = nodal.deficiency_bound(si, value)
    _emit(args, _json(report.as_dict()))
    return 0


def _cmd_dirichlet_check(args: argparse.Namespace) -> int:
    domain = box(args.dim, DIRICHLET)
    value = _parse_value(domain, args.lam)
    si = _index_through(domain, value)
    check = nodal.dirichlet_deficiency_check(si, value)
    _emit(args, _json(check.as_dict()))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import acceptance

    ids = [crit.cid for crit in acceptance.CRITERIA]
    unknown = [cid for cid in args.only or () if cid not in ids]
    if unknown:
        raise SystemExit(
            f"unknown criterion id {', '.join(unknown)}; valid ids: {', '.join(ids)}"
        )
    failures = 0
    for crit in acceptance.CRITERIA:
        if args.only and crit.cid not in args.only:
            continue
        result = crit.run()
        status = "PASS" if result.ok else "FAIL"
        print(f"[{status}] criterion {crit.cid}: {crit.name} -- {result.detail}")
        if not result.ok:
            failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def _add_domain_flags(p: argparse.ArgumentParser, bc: bool = True) -> None:
    p.add_argument("--domain", choices=["triangle", "box"], required=True)
    p.add_argument("--dim", type=int, default=2, help="box dimension (>= 2)")
    if bc:
        p.add_argument("--bc", choices=[NEUMANN, DIRICHLET], default=NEUMANN)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldspec",
        description="Spectra, folding structure, nodal counts and "
        "Courant-sharpness of 2-rep-tile domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="sorted eigenvalue table")
    _add_domain_flags(p)
    p.add_argument("--cutoff", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--points", action="store_true", help="include member lattice points")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("verdicts", help="Courant-sharpness classification")
    _add_domain_flags(p, bc=False)
    p.add_argument("--cutoff", required=True)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.add_argument("--explain", type=int, help="print the witness chain for one position")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_verdicts)

    p = sub.add_parser("nodal", help="nodal-domain count of a basis function")
    _add_domain_flags(p)
    p.add_argument("--qn", required=True)
    p.add_argument("--grid", type=int, help="force grid counting at this resolution")
    p.add_argument("--svg", help="write the sign pattern as SVG")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_nodal)

    p = sub.add_parser("frame", help="k-frame facets")
    _add_domain_flags(p, bc=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--svg", help="write the frame as SVG")
    p.add_argument("--json", action="store_true", help="also emit facet JSON")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_frame)

    p = sub.add_parser("eval", help="evaluate a basis function at a point")
    _add_domain_flags(p)
    p.add_argument("--qn", required=True)
    p.add_argument("--at", required=True, help="coordinates, e.g. 1.2,0.5 or pi/2,0")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("checksym", help="reflection symmetry report")
    _add_domain_flags(p)
    p.add_argument("--qn", required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_checksym)

    p = sub.add_parser("checkframe", help="frame vanishing report")
    _add_domain_flags(p, bc=False)
    p.add_argument("--qn", required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_checkframe)

    p = sub.add_parser("deficiency", help="nodal-deficiency lower bounds")
    _add_domain_flags(p, bc=False)
    p.add_argument("--lambda", dest="lam", required=True, help="eigenvalue (int or coefficients)")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_deficiency)

    p = sub.add_parser("dirichlet-check", help="Dirichlet deficiency identity")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_dirichlet_check)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", nargs="+", help="criterion ids to run")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1
    except FoldspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
