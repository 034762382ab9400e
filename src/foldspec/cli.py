"""Command-line front end.

Subcommands: spectrum, verdicts, nodal, frame, eval, checksym, checkframe,
deficiency, dirichlet-check, selftest.  Output is deterministic for a fixed
invocation: ordering is exact-value order and floats are emitted via repr.
Every spectrum and verdict row, JSON or CSV, is one %-fill of its shape's
template: the serializer's own writing (json.dumps(rows, indent=2), or
csv.writer) of one placeholder row, filled from the index's or the verdict
table's int64 columns, so the output is byte-identical to those
serializers on the row dicts (see _write_rows).  The CSV header comes from
the row schema, so an empty result prints the header alone.  Other JSON
goes through json.dumps.  Every -o and --svg file goes through one writer,
which turns an OS error into an error line naming the path.  checksym
and checkframe decide exactly from the quantum number, in any box
dimension; checkframe names the first facet where the function does not
vanish, if there is one.  Start-up loads only what argument parsing and
spectrum need; every other subcommand imports the modules it runs (courant,
nodal, eigenfn, folding, and svgout under --svg) when it starts, so no
command pays for another's.  Every refusal, a malformed argument included,
is a FoldspecError that main prints as one "error:" line, exit status 1;
argparse refuses unknown flags and choices itself, with exit status 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import algebra, qlattice, spectrum
from .algebra import AlgebraicValue
from .domains import DIRICHLET, NEUMANN, Domain, box, triangle
from .errors import ConsistencyError, DomainError, FoldspecError

if TYPE_CHECKING:  # annotations only; the commands import these as they run
    from . import courant, folding


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
        raise DomainError(f"invalid cutoff {text!r}: {exc}") from None


def _parse_qn(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise DomainError(f"invalid quantum number {text!r}; expected like 2,1") from None


def _parse_value(domain: Domain, text: str) -> AlgebraicValue:
    """A spectral value: either one integer or the full coefficient vector."""
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise DomainError(f"invalid eigenvalue {text!r}; expected like 12 or 1,0") from None
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
        raise DomainError(f"invalid point {text!r}; expected like 1.2,0.5 or pi/2,0") from None


def _write_file(path: str, text: str) -> None:
    """Write text to path; an OS error ends the command with an error line
    naming the path and the reason."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FoldspecError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(args: argparse.Namespace, payload: str) -> None:
    if getattr(args, "out", None):
        _write_file(args.out, payload)
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _json_floats(xs: list[float]) -> list[str]:
    """Each float of xs as json.dumps writes it, in one encoder call."""
    return json.dumps(xs)[1:-1].split(", ") if xs else []


def _csv_line(values: Sequence) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(values)
    return buf.getvalue()


def _leaves(obj) -> list:
    """The leaves of nested dicts, lists and tuples, in the order json.dumps
    writes them."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if not isinstance(obj, (list, tuple)):
        return [obj]
    return [leaf for item in obj for leaf in _leaves(item)]


# ---------------------------------------------------------------------------
# spectrum and verdict rows: one %-fill of a template per row

# Placeholders for a row template's numbers.  The serializers write them as
# these digits, which _row_template turns into %-specs: %i for ints, %s for
# floats that json's encoder has already written, %r for floats in CSV
# (csv.writer writes a float by repr).  No other text of a row holds these
# digits or a %, but for the value and odd-core texts, which come in as
# their own %d templates (algebra.text_template), and the subdomain name of
# a witness, which comes in as "%s"; both serializers keep those as strings.
_INT = 7777777777777777777
_FLOAT = 7.777777777777777e-77

# A shape's rows are filled this many at a time, so that only a chunk of
# its argument columns is held as Python objects at once.
_CHUNK = 1 << 14

_PARITY = ("even", "odd")


def _row_template(fmt: str, names: Sequence[str], values: list) -> str:
    """The row of these field values, placeholders among them, as fmt
    writes it, the placeholder numbers turned into %-specs: one item of
    json.dumps(rows, indent=2)'s list, or one csv.writer line with each
    nested value written by json.dumps."""
    if fmt == "json":
        text = json.dumps([dict(zip(names, values))], indent=2)[2:-2]
    else:
        text = _csv_line([json.dumps(v) if isinstance(v, (dict, list)) else v for v in values])
    return text.replace(repr(_FLOAT), "%s" if fmt == "json" else "%r").replace(repr(_INT), "%i")


def _shape_codes(keys: Sequence[np.ndarray]) -> np.ndarray:
    """One int per row, equal exactly where every key column is: the
    columns, of nonnegative ints, read as the digits of one mixed-radix
    number, renumbered densely before it could pass 2^62."""
    code, size = np.zeros(len(keys[0]), dtype=np.int64), 1
    for column in keys:
        base = int(column.max(initial=0)) + 1
        if size * base >= 1 << 62:
            code = np.unique(code, return_inverse=True)[1].reshape(-1)
            size = int(code.max(initial=0)) + 1
        code, size = code * base + column, size * base
    return code


def _arguments(fmt: str, column: np.ndarray) -> list:
    """A column's values as its %-spec takes them: in JSON a float column
    written by json's encoder, otherwise Python objects."""
    values = column.tolist()
    return _json_floats(values) if fmt == "json" and column.dtype.kind == "f" else values


def _write_rows(fmt: str, names: Sequence[str], keys: Sequence[np.ndarray], shape) -> str:
    """The rows, byte for byte as json.dumps writes them as dicts of names
    (indent 2) or as csv.writer writes the names and then the rows.

    The rows whose key columns agree share a shape: shape(at), for the rows
    at of one shape, gives each field as a pair of its placeholder value and
    its argument columns (at least one column in all, in the order json.dumps
    writes the field's leaves).  The placeholder row, written once by the
    serializer, is the shape's template, and each row is one %-fill of it."""
    texts = np.empty(len(keys[0]), dtype=object)
    code = _shape_codes(keys)
    order = np.argsort(code, kind="stable")
    for at in np.split(order, np.flatnonzero(np.diff(code[order])) + 1) if len(order) else ():
        fields = shape(at)
        template = _row_template(fmt, names, [place for place, _ in fields])
        columns = [c for _, cs in fields for c in cs]
        for lo in range(0, len(at), _CHUNK):
            args = [_arguments(fmt, c[lo : lo + _CHUNK]) for c in columns]
            texts[at[lo : lo + _CHUNK]] = list(map(template.__mod__, zip(*args)))
    rows = texts.tolist()  # the brackets join the end rows: one copy of the text
    if fmt == "csv":
        return "".join([_csv_line(names), *rows])
    if not rows:
        return "[]\n"
    rows[0] = "[\n" + rows[0]
    rows[-1] += "\n]\n"
    return ",\n".join(rows)


def _text(n: int, rows: np.ndarray, nonzero: np.ndarray) -> tuple[str, list]:
    """The value text of coefficient rows of one nonzero pattern: its %d
    template and the nonzero columns."""
    return algebra.text_template(n, tuple(nonzero.tolist())), list(rows[:, nonzero].T)


def _level_shapes(
    n: int, coeffs: np.ndarray, position: np.ndarray, counts: np.ndarray,
    core: np.ndarray, k: np.ndarray, null_ground: bool,
):
    """The key columns and the shape fields of the levels' position, value,
    float, multiplicity, parity, odd core and k, for _write_rows: a shape
    fixes the nonzero patterns of the value and the core, the parity and the
    member count.  With null_ground, the ground state's core and k are null."""
    floats = algebra.coeffs_floats(coeffs)

    def fields(at: np.ndarray) -> list:
        i = at[0]
        nonzero = coeffs[i] != 0
        head = [
            (_INT, [position[at]]),
            _text(n, coeffs[at], nonzero),
            (_FLOAT, [floats[at]]),
            (int(counts[i]), []),
            (_PARITY[coeffs[i, 0] % 2], []),
        ]
        if null_ground and not nonzero.any():
            return head + [(None, []), (None, [])]
        return head + [_text(n, core[at], core[i] != 0), (_INT, [k[at]])]

    return [*(coeffs != 0).T, *(core != 0).T, coeffs[:, 0] % 2, counts], fields


_SPECTRUM_FIELDS = ("position", "value", "float", "multiplicity", "parity", "odd_core", "k")


def _spectrum_text(si: spectrum.SpectrumIndex, points: bool, fmt: str) -> str:
    """Every level of the index as a spectrum row, with its members if
    points; the ground state has no odd core."""
    n, region = si.domain.ring, si.region
    core, k = spectrum.odd_core_columns(n, region.coeffs)
    keys, level = _level_shapes(
        n, region.coeffs, si.starts + 1, si.multiplicities, core, k, null_ground=True
    )
    place = [_INT] * region.members.shape[1]

    def shape(at: np.ndarray) -> list:
        fields = level(at)
        if points:
            count = int(si.multiplicities[at[0]])
            block = region.members[region.offsets[at][:, None] + np.arange(count)]
            fields.append(([place] * count, list(block.reshape(len(at), -1).T)))
        return fields

    names = _SPECTRUM_FIELDS + ("members",) if points else _SPECTRUM_FIELDS
    return _write_rows(fmt, names, keys, shape)


def _verdicts_text(t: courant.VerdictTable, fmt: str) -> str:
    """Every verdict of the table as a row of courant.VERDICT_FIELDS, its
    witness shaped by courant.witness: once over placeholders for the
    template, once over the shape's columns for the arguments."""
    from . import courant

    r = t.region
    keys, level = _level_shapes(
        r.domain.ring, r.coeffs, t.position, t.multiplicity, t.core, t.k, null_ground=False
    )
    reasons = t.reason.tolist()
    codes = {reason: i for i, reason in enumerate(dict.fromkeys(reasons))}
    subdomains = np.array(
        [courant.subdomain_name(k) for k in range(int(t.k.max(initial=0)) + 1)], dtype=object
    )
    place = [_INT] * t.points.shape[2]

    def shape(at: np.ndarray) -> list:
        i = at[0]
        count, reason = int(t.multiplicity[i]), reasons[i]
        members = r.members[r.offsets[at][:, None] + np.arange(count)]
        columns = courant.witness(
            reason,
            [tuple(t.points[at, j].T) for j in (0, 1)],
            t.nu[at],
            subdomains[t.k[at]],
            [tuple(members[:, j].T) for j in range(count)],
        )
        return level(at) + [
            (bool(t.sharp[i]), []),
            (reason, []),
            (None, []) if t.nu[i] < 0 else (_INT, [t.nu[at]]),
            (courant.witness(reason, [place, place], _INT, "%s", [place] * count),
             _leaves(columns)),
        ]

    keys += [
        np.fromiter(map(codes.__getitem__, reasons), np.int64, len(reasons)),
        t.nu < 0,
        t.sharp,
    ]
    return _write_rows(fmt, courant.VERDICT_FIELDS, keys, shape)


def _verdicts_table(t: courant.VerdictTable) -> str:
    n = t.region.domain.ring
    lines = [f"{'pos':>5} {'value':>16} {'d':>2} {'parity':>6} {'sharp':>5}  reason"]
    lines += [
        f"{position:>5} {algebra.coeffs_text(n, c):>16} {d:>2} {_PARITY[c[0] % 2]:>6} "
        f"{str(sharp).lower():>5}  {reason}"
        for position, c, d, sharp, reason in zip(
            t.position.tolist(), qlattice.tuples(t.region.coeffs), t.multiplicity.tolist(),
            t.sharp.tolist(), t.reason.tolist(),
        )
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args: argparse.Namespace) -> int:
    si = spectrum.build_index(_parse_domain(args), _parse_cutoff(args.cutoff))
    _emit(args, _spectrum_text(si, args.points, args.format))
    return 0


def _cmd_verdicts(args: argparse.Namespace) -> int:
    from . import courant

    table = courant.classify(_parse_domain(args), _parse_cutoff(args.cutoff))
    if args.explain is not None:
        _emit(args, _json(courant.explain(table, args.explain).as_dict()))
    elif args.format == "table":
        _emit(args, _verdicts_table(table))
    else:
        _emit(args, _verdicts_text(table, args.format))
    return 0


def _cmd_nodal(args: argparse.Namespace) -> int:
    from . import eigenfn, nodal

    domain = _parse_domain(args)
    qn = _parse_qn(args.qn)
    f = eigenfn.basis_fn(domain, qn)
    result: dict = {"domain": domain.label(), "qn": list(qn), "value": f.value.text()}
    count = nodal.count_auto(domain, qn, resolution=args.grid)
    result |= {
        "nu": count.count, "method": count.method, "resolution": count.resolution,
        "stable": count.stable,
    }
    if args.svg:
        from . import svgout

        _write_file(args.svg, svgout.nodal_svg(f))
        result["svg"] = args.svg
    _emit(args, _json(result))
    return 0


def _facet_json(facet: folding.Segment | folding.Slab) -> dict:
    from . import folding

    if isinstance(facet, folding.Segment):
        return {
            "a": [str(facet.a[0]), str(facet.a[1])],
            "b": [str(facet.b[0]), str(facet.b[1])],
        }
    return {"axis": facet.axis, "position": str(facet.frac)}


def _cmd_frame(args: argparse.Namespace) -> int:
    from . import folding

    domain = _parse_domain(args)
    frame = folding.build_frame(domain, args.k)
    if args.svg:
        from . import svgout

        _write_file(args.svg, svgout.frame_svg(frame))
    if args.json or not args.svg:
        result = {
            "domain": domain.label(), "k": args.k, "facet_count": len(frame.facets),
            "facets": [_facet_json(facet) for facet in frame.facets],
            "units": "pi (triangle) / edge-length fraction (box)",
        }
        _emit(args, _json(result))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import eigenfn

    domain, qn = _parse_domain(args), _parse_qn(args.qn)
    f = eigenfn.basis_fn(domain, qn)
    p = _parse_point(args.at)
    result = {
        "qn": list(qn), "at": list(p), "value": eigenfn.eval_at(f, p),
        "eigenvalue": f.value.text(),
    }
    _emit(args, _json(result))
    return 0


def _cmd_checksym(args: argparse.Namespace) -> int:
    from . import eigenfn

    domain, qn = _parse_domain(args), _parse_qn(args.qn)
    f = eigenfn.basis_fn(domain, qn)
    result = {
        "qn": list(qn), "eigenvalue": f.value.text(),
        "eigenvalue_parity": algebra.parity(f.value), "symmetry": eigenfn.symmetry_check(f),
    }
    _emit(args, _json(result))
    return 0


def _cmd_checkframe(args: argparse.Namespace) -> int:
    from . import eigenfn

    domain, qn = _parse_domain(args), _parse_qn(args.qn)
    f = eigenfn.basis_fn(domain, qn)
    failing = eigenfn.frame_vanishing(f)
    result = {
        "qn": list(qn), "eigenvalue": f.value.text(), "k": spectrum.odd_core(f.value).k,
        "vanishes": failing is None,
        "failing_facet": None if failing is None else _facet_json(failing[1]),
    }
    _emit(args, _json(result))
    return 0


def _index_through(domain: Domain, value: AlgebraicValue) -> spectrum.SpectrumIndex:
    """The spectrum index up to and including value (cutoff value + 1)."""
    cutoff = AlgebraicValue(value.n, (value.coeffs[0] + 1,) + value.coeffs[1:])
    return spectrum.build_index(domain, cutoff)


def _cmd_deficiency(args: argparse.Namespace) -> int:
    from . import nodal

    domain = _parse_domain(args)
    value = _parse_value(domain, args.lam)
    try:  # deficiency_bound reads the index at the odd core alone
        core = spectrum.odd_core(value).core
    except FoldspecError:  # zero, or not divisible: refused before any read
        core = value
    report = nodal.deficiency_bound(_index_through(domain, core), value)
    _emit(args, _json(report.as_dict()))
    return 0


def _cmd_dirichlet_check(args: argparse.Namespace) -> int:
    from . import nodal

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
        raise DomainError(
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
    p.add_argument("--explain", type=int, help="print the verdict of one position as JSON")
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
