"""Command-line surface: bound evaluation, order and monoid inspection,
matrix-structure counting, and the verification suite.

Conventions: field polynomials are comma-separated integer coefficients,
constant term first; order bases are semicolon-separated rows with an
optional /denominator suffix.  Output is JSON or a plain table.  Exit
codes: 0 success, 1 usage error, 2 domain error, 3 budget exhaustion.

JSON is written by _json_text, which gives the bytes of
``json.dumps(payload, sort_keys=True, indent=2, default=str)`` (keys sorted,
two-space indent, ASCII escapes, other types through str) without the pure
Python encoder that json.dumps falls back to when it indents; it picks each
value's writer by its exact type.  The tests hold it to json.dumps byte
for byte, and the golden files and sha256 pins in tests/test_cli.py fix
the output.

Answers are formatted from the integers the library holds: lattice rows
(order-info's order and conductor bases, class-monoid's representatives)
are printed as x/D in lowest terms from a Lattice's integer numerators x
and denominator D (_lattice_rows), and gamma-count's rational matrices as
integers; the strings are those of the Fraction values they stand for.
The fundamental unit's two coordinates come from orders.fundamental_unit,
which reads them off integers.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from . import bounds as bounds_mod
from .errors import InvalidInput, OrderkitError
from .gamma_structures import MatrixOrder, count_structures
from .ideals import class_monoid
from .numberfield import make_field
from .orders import conductor, is_order, maximal_order, unit_square_quotient
from .verify import run_suite


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_poly(text: str):
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"bad polynomial {text!r}: expected comma-separated "
                         f"integers, constant term first")


def parse_basis(text: str):
    den, rows_text = 1, text
    if "/" in text:
        rows_text, den_text = text.rsplit("/", 1)
        try:
            den = int(den_text)
        except ValueError:
            raise UsageError(f"bad denominator {den_text!r}")
        if den == 0:
            raise InvalidInput(f"bad order basis {text!r}: the denominator "
                               f"is 0", operation="order_basis")
    rows = []
    for row_text in rows_text.split(";"):
        try:
            rows.append([Fraction(int(tok), den) for tok in row_text.split(",")])
        except ValueError:
            raise UsageError(f"bad basis row {row_text!r}")
    return rows


def _merge_config(args, actions, config_path):
    """Flat key=value config; explicit flags win over config values.

    Each value is read as its flag would be: coerced by the argparse action's
    declared ``type`` (a bool for store_true flags, else kept a string) and
    checked against its ``choices``."""
    if not config_path:
        return {}
    merged = {}
    try:
        with open(config_path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read config {config_path!r}: {err}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        merged[key] = value.strip()
    for key, value in merged.items():
        if not hasattr(args, key):
            raise UsageError(f"unknown config key {key!r}")
        action = actions[key]
        if getattr(args, key) == action.default:
            if isinstance(action, argparse._StoreTrueAction):
                value = value.lower() in ("1", "true", "yes")
            elif action.type is not None:
                try:
                    value = action.type(value)
                except ValueError:
                    raise UsageError(
                        f"bad config value {value!r} for {key!r}") from None
            if action.choices is not None and value not in action.choices:
                raise UsageError(f"bad config value {value!r} for {key!r}")
            setattr(args, key, value)
    return merged


def _emit(payload, fmt):
    if fmt == "json":
        print(_json_text(payload))
    else:
        _print_table(payload)


# json's spelling of the floats that have no JSON literal
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, pad="\n"):
    """json.dumps(value, sort_keys=True, indent=2, default=str), for string
    keys; ``pad`` is a newline and the indent of the line value starts on.
    The writer is looked up by type(value) (_WRITERS); a list of plain ints
    or of strings is joined in one step."""
    return _WRITERS.get(type(value), _json_other)(value, pad)


def _json_float(value, pad):
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _json_list(value, pad):
    if not value:
        return "[]"
    inner = pad + "  "
    sep = "," + inner
    kinds = set(map(type, value))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is int:
        body = sep.join(map(int.__repr__, value))
    elif kind is str:
        body = sep.join(map(_quote, value))
    elif kind is not None:  # one writer for every item
        write = _WRITERS.get(kind, _json_other)
        body = sep.join([write(x, inner) for x in value])
    else:
        get = _WRITERS.get
        body = sep.join([get(type(x), _json_other)(x, inner) for x in value])
    return "[" + inner + body + pad + "]"


def _json_dict(value, pad):
    if not value:
        return "{}"
    inner = pad + "  "
    get = _WRITERS.get
    return "{" + inner + ("," + inner).join([
        _quote(k) + ": " + get(type(v), _json_other)(v, inner)
        for k, v in sorted(value.items())]) + pad + "}"


def _json_other(value, pad):
    """A value whose type has no writer: a subclass of a JSON type is
    written as its base, tested in json.dumps's order, and anything else
    as its str (default=str)."""
    for base in (str, int, float, list, tuple, dict):
        if isinstance(value, base):
            return _WRITERS[base](value, pad)
    return _quote(str(value))


_WRITERS = {
    str: lambda value, pad: _quote(value),
    type(None): lambda value, pad: "null",
    bool: lambda value, pad: "true" if value else "false",
    int: lambda value, pad: int.__repr__(value),
    float: _json_float,
    list: _json_list,
    tuple: _json_list,
    dict: _json_dict,
}


def _lattice_rows(lat):
    """The basis rows of a Lattice as the strings of their rationals, x/D
    in lowest terms read off the integer numerators x and the denominator
    D: the strings of lat.rows_q(), with no Fraction built."""
    d = lat.den
    out = []
    for row in lat.basis.entries:
        texts = []
        for x in row:
            g = gcd(x, d)
            texts.append(str(x // g) if g == d else f"{x // g}/{d // g}")
        out.append(texts)
    return out


def _print_table(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, dict) or _is_nested_list(value):
                print(f"{pad}{key}:")
                _print_table(value, indent + 1)
            else:
                print(f"{pad}{key}: {_scalar_text(value)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, dict) or _is_nested_list(item):
                _print_table(item, indent + 1)
            else:
                print(f"{pad}- {_scalar_text(item)}")
    else:
        print(f"{pad}{payload}")


def _is_nested_list(value):
    return isinstance(value, list) and any(isinstance(x, (dict, list))
                                           for x in value)


def _scalar_text(value):
    if isinstance(value, list):
        return "[" + ", ".join(str(x) for x in value) + "]"
    return value


FORMULAS = ("thm-a-height", "thm-main-height", "thm-main-count", "thm-b",
            "es-gl2", "thm-endobound", "cor-p1n", "level-structure",
            "pol-degree")


# integer inputs of the bound formulas; each is a positive integer
_BOUND_INTEGERS = ("g", "nu", "n", "pic", "max_level", "n_f", "h", "l",
                   "d_override")


def _cmd_bound(args):
    for name in _BOUND_INTEGERS:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise InvalidInput(f"--{name.replace('_', '-')} must be a "
                               f"positive integer, got {value}",
                               operation="bound")
    try:
        spec = bounds_mod.SIntegerSpec.from_string(args.excluded_primes)
    except ValueError:
        raise InvalidInput(f"bad --excluded-primes {args.excluded_primes!r}: "
                           f"expected comma-separated integers",
                           operation="bound") from None
    fid = args.formula
    inputs = {"formula": fid, "g": args.g, "excluded_primes":
              sorted(spec.excluded_primes)}
    if fid == "thm-a-height":
        b = bounds_mod.thm_a_height(args.g, args.nu, spec)
        inputs["nu"] = args.nu
        return {"bound": b.to_json_dict(fid, inputs), "inputs": inputs}
    if fid == "thm-main-height":
        b = bounds_mod.thm_main_height(args.g, spec)
        return {"bound": b.to_json_dict(fid, inputs), "inputs": inputs}
    if fid == "thm-main-count":
        inputs["pic"] = args.pic
        inputs["max_level"] = args.max_level
        head, sharp = bounds_mod.thm_main_count(args.g, spec, args.pic,
                                                args.max_level)
        if head is None:
            return {"bound": None, "inputs": inputs,
                    "note": "level count unbounded: no finite count bound"}
        return {"bound": head.to_json_dict(fid, inputs),
                "sharper": sharp.to_json_dict(fid + "-sharper", inputs),
                "inputs": inputs}
    if fid == "thm-b":
        inputs["pic"] = args.pic
        b = bounds_mod.thm_b(args.g, spec, args.pic)
        return {"bound": b.to_json_dict(fid, inputs), "inputs": inputs}
    if fid == "es-gl2":
        h, c, i = bounds_mod.es_gl2_bounds(args.g, spec)
        return {"height": h.to_json_dict(fid + "-height", inputs),
                "count": c.to_json_dict(fid + "-count", inputs),
                "isogeny": i.to_json_dict(fid + "-isogeny", inputs),
                "inputs": inputs}
    if fid == "thm-endobound":
        inputs.update({"n_f": args.n_f, "h": args.h, "l": args.l,
                       "d_override": args.d_override})
        b = bounds_mod.thm_endobound(args.g, spec, args.n_f, args.h, args.l,
                                     args.d_override)
        return {"bound": b.to_json_dict(fid, inputs), "inputs": inputs}
    if fid == "cor-p1n":
        inputs["n"] = args.n
        inputs["pic"] = args.pic
        h, c = bounds_mod.cor_p1n(args.g, args.n, spec, args.pic)
        return {"height": h.to_json_dict(fid + "-height", inputs),
                "count": c.to_json_dict(fid + "-count", inputs),
                "inputs": inputs}
    if fid == "level-structure":
        inputs["kind"] = args.kind
        inputs["n"] = args.n
        factors = bounds_mod.level_structure_factors(args.kind, args.n, args.g)
    elif fid == "pol-degree":
        factors = bounds_mod.pol_degree_factors(args.g)
    else:
        raise UsageError(f"unknown formula {fid!r}")
    return {"bound": bounds_mod.plain_or_big(factors, fid, inputs),
            "inputs": inputs}


def _order_from_args(field, basis_text):
    """The order spanned by --order-basis rows, or the maximal order."""
    if not basis_text:
        return maximal_order(field)
    rows = parse_basis(basis_text)
    if any(len(row) != field.degree for row in rows):
        raise InvalidInput(f"bad order basis {basis_text!r}: each row needs "
                           f"one entry per degree of the field "
                           f"({field.degree})", operation="order_basis")
    return is_order(field, rows)


def _cmd_order_info(args):
    field = make_field(parse_poly(args.field))
    order = _order_from_args(field, args.order_basis)
    om = maximal_order(field)
    cond = conductor(order, om)
    out = {
        "field": {"min_poly": list(field.coeffs), "degree": field.degree,
                  "poly_disc": field.poly_disc,
                  "signature": list(field.signature)},
        "order": {"basis": _lattice_rows(order.lattice),
                  "disc": order.disc()},
        "conductor": {"norm": cond.norm,
                      "basis": _lattice_rows(cond.lattice)},
    }
    if field.degree <= 2:
        units = unit_square_quotient(order)
        out["units"] = {
            "torsion_order": units.torsion_order,
            "square_class_count": units.square_class_count,
            "fundamental_unit":
                list(map(str, units.fundamental_unit.coords))
                if units.fundamental_unit else None,
        }
    return out


def _cmd_class_monoid(args):
    field = make_field(parse_poly(args.field))
    order = _order_from_args(field, args.order_basis)
    monoid = class_monoid(order)
    classes = []
    for idx, c in enumerate(monoid.classes):
        classes.append({
            "id": idx,
            "representative": _lattice_rows(c.representative.lattice),
            # the index a of [a, b + omega] is its norm
            "norm": str(c.pair[0] if c.pair else
                        c.representative.norm_index()),
            "invertible": c.invertible,
        })
    return {
        "size": monoid.size,
        "conductor_norm": monoid.conductor_norm,
        "classes": classes,
        "multiplication_table": [list(r) for r in monoid.table],
        "picard_subset": list(monoid.picard_subset),
        "intermediate_subset": list(monoid.intermediate_subset),
        "census_checked": monoid.census_checked,
    }


def _cmd_gamma_count(args):
    if args.target_n < 1:
        raise InvalidInput(f"--target-n must be a positive integer, got "
                           f"{args.target_n}", operation="gamma_count")
    field = make_field(parse_poly(args.gamma_field))
    gamma = _order_from_args(field, args.gamma_basis)
    if args.target_field:
        k = make_field(parse_poly(args.target_field))
    else:
        k = make_field([0, 1])
    target = MatrixOrder(k, args.target_n)
    res = count_structures(gamma, target)
    structures = []
    rational_base = k.degree == 1
    for s in res.structures:
        if rational_base:
            matrices = [[[int(e.coords[0]) for e in row] for row in m]
                        for m in s.representative.images]
        else:
            matrices = [[[list(map(str, e.coords)) for e in row]
                         for row in m] for m in s.representative.images]
        structures.append({"phi_index": s.compatibility,
                           "matrices": matrices,
                           "ideal_class_id": s.ideal_class_index})
    return {
        "count": res.count,
        "bound": res.bound,
        "per_embedding": list(res.per_embedding),
        "conductor_norm": res.conductor_norm,
        "picard_order": res.picard_order,
        "embeddings": res.embedding_count,
        "structures": structures,
    }


# the columns of SuiteReport.per_order, as verify-suite's JSON names them
_PER_ORDER_KEYS = ("disc", "conductor_index", "conductor_norm", "classes",
                   "picard", "intermediate", "census_checked")


def _cmd_verify_suite(args, merged):
    """The suite's text lines (--format table, the default), or one JSON
    object: passed, the checks and the per-order rows."""
    report = run_suite(max_abs_disc=args.max_disc,
                       max_conductor=args.max_conductor,
                       conjugations=args.conjugations,
                       inject_fault=args.inject_fault)
    if args.format == "table":
        for line in report.lines():
            print(line)
    else:
        payload = {
            "passed": report.passed,
            "checks": [{"name": r.name, "passed": r.passed,
                        "seconds": r.seconds, "details": r.details}
                       for r in report.results],
            "per_order": [dict(zip(_PER_ORDER_KEYS, row))
                          for row in report.per_order],
        }
        if merged:
            payload["config_merged"] = merged
        _emit(payload, args.format)
    return 0 if report.passed else 2


def build_parser():
    parser = _Parser(prog="orderkit",
                     description="exact arithmetic for orders in number "
                                 "fields, with explicit bound evaluators")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None,
                        help="flat key=value file; flags win over it")
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    b = sub.add_parser("bound", help="evaluate an explicit bound formula",
                       parents=[common])
    b.add_argument("--formula", choices=FORMULAS, required=True)
    b.add_argument("--g", type=int, default=1)
    b.add_argument("--nu", type=int, default=1)
    b.add_argument("--n", type=int, default=1)
    b.add_argument("--pic", type=int, default=1)
    b.add_argument("--max-level", type=int, default=None)
    b.add_argument("--n-f", type=int, default=1)
    b.add_argument("--h", type=int, default=1)
    b.add_argument("--l", type=int, default=1)
    b.add_argument("--d-override", type=int, default=None)
    b.add_argument("--kind", choices=("principal_n", "p1_n", "mordell_a"),
                   default="p1_n")
    b.add_argument("--excluded-primes", default="",
                   help='comma-separated primes, e.g. "2,3"; empty for none')

    o = sub.add_parser("order-info", help="validate an order; conductor, units",
                       parents=[common])
    o.add_argument("--field", required=True)
    o.add_argument("--order-basis", default=None)

    c = sub.add_parser("class-monoid", help="classes, table, census audit",
                       parents=[common])
    c.add_argument("--field", required=True)
    c.add_argument("--order-basis", default=None)

    g = sub.add_parser("gamma-count", help="count structures on a matrix order",
                       parents=[common])
    g.add_argument("--gamma-field", required=True)
    g.add_argument("--gamma-basis", default=None)
    g.add_argument("--target-n", type=int, required=True)
    g.add_argument("--target-field", default=None)

    v = sub.add_parser("verify-suite", help="run every verification check",
                       parents=[config])
    # its own --format: the suite's text lines by default
    v.add_argument("--format", choices=("json", "table"), default="table")
    v.add_argument("--max-disc", type=int, default=200)
    v.add_argument("--max-conductor", type=int, default=6)
    v.add_argument("--conjugations", type=int, default=20)
    v.add_argument("--inject-fault", action="store_true",
                   help="negative control: corrupt one table entry")
    return parser


def _merge_negative_values(argv):
    """Join '--flag -2,0,1' into '--flag=-2,0,1' so negative-leading values
    survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok.startswith("--") and "=" not in tok and nxt is not None
                and len(nxt) > 1 and nxt[0] == "-" and nxt[1].isdigit()):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _parser_and_actions():
    """The parser and, per command, its dest -> action map (a dest such as
    format may have another default in another command), built once per
    process: parsing does not change them."""
    parser = build_parser()
    top = {a.dest: a for a in parser._actions}
    actions = {name: {**top, **{a.dest: a for a in sp._actions}}
               for name, sp
               in parser._subparsers._group_actions[0].choices.items()}
    return parser, actions


def main(argv=None):
    parser, actions = _parser_and_actions()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
        merged = _merge_config(args, actions[args.command], args.config)
        if args.command == "verify-suite":
            return _cmd_verify_suite(args, merged)
        handler = {"bound": _cmd_bound,
                   "order-info": _cmd_order_info,
                   "class-monoid": _cmd_class_monoid,
                   "gamma-count": _cmd_gamma_count}[args.command]
        payload = handler(args)
        if merged:
            payload["config_merged"] = merged
        _emit(payload, args.format)
        return 0
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except OrderkitError as err:
        tb = err.__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        # the module of the frame that raised err, without the package name;
        # __spec__ names it under ``python -m`` too, where __name__ is __main__
        frame_globals = tb.tb_frame.f_globals
        spec = frame_globals.get("__spec__")
        name = spec.name if spec else frame_globals["__name__"]
        module = name.rpartition(".")[2]
        origin = f"{module}.{err.operation}" if err.operation else module
        spent = ("" if err.limit is None else
                 f" (limit {err.limit}, consumed {err.consumed})")
        print(f"error [{origin}] {type(err).__name__}: {err}{spent}",
              file=sys.stderr)
        return 3 if err.budget else 2


if __name__ == "__main__":
    sys.exit(main())
