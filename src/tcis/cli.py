"""Command-line interface.

Exit codes: 0 success (YES for the check commands), 1 negative check
result (NO), 2 malformed input or bad arguments, 3 guarded-infeasible
computation.  Every subcommand accepts --json for machine-readable
output; index sets in text output are 1-based, JSON mirrors the same
numbers.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import formats
from .boolfun import BooleanPermutation, cip_strength, derive_bijections
from .classify import class_table_text, classify_tcis
from .codes import (
    LinearCode,
    dual_distance,
    is_self_orthogonal,
    min_distance,
)
from .construct import QcSpec, bounds, mass_formula_check, qc_build
from .gf2 import Infeasible
from .partition import t_cis_partition
from .z4 import (
    Z4Code,
    gray_image,
    lee_min_distance,
    z4_derive_bijections,
    z4_t_cis_partition,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3


def _schema(n, k, d=None, dual_d=None, t=None, cis=None, partition=None, certificate=None):
    # fixed key order keeps JSON byte-stable across runs
    return {
        "n": n,
        "k": k,
        "d": d,
        "dual_d": dual_d,
        "t": t,
        "cis": cis,
        "partition": partition,
        "certificate": certificate,
    }


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _load_bin(path) -> LinearCode:
    obj = formats.load(path)
    if isinstance(obj, QcSpec):
        obj, _ = qc_build(obj)
    if not isinstance(obj, LinearCode):
        raise ValueError(f"{path}: expected a 'bin' code file or a 'qc' spec")
    return obj


def _load_z4(path) -> Z4Code:
    obj = formats.load(path)
    if not isinstance(obj, Z4Code):
        raise ValueError(f"{path}: expected a 'z4' code file")
    return obj


def _load_perm(path) -> BooleanPermutation:
    obj = formats.load(path)
    if not isinstance(obj, BooleanPermutation):
        raise ValueError(f"{path}: expected a 'perm' file")
    return obj


def _ones(cols) -> list[int]:
    return sorted(c + 1 for c in cols)


def _print_check(result, n: int, k: int, t: int, as_json: bool) -> int:
    if result.is_partition:
        sets = [_ones(s) for s in result.sets]
        if as_json:
            _emit_json(_schema(n, k, t=t, cis=True, partition=sets))
        else:
            print("YES")
            for i, s in enumerate(sets, 1):
                print(f"set {i}: {' '.join(map(str, s))}")
        return EXIT_YES
    cols = _ones(result.columns)
    cert = {"columns": cols, "rank": result.rank}
    if as_json:
        _emit_json(_schema(n, k, t=t, cis=False, certificate=cert))
    else:
        print("NO")
        print(f"violating set S ({len(cols)} columns, rank {result.rank}):",
              " ".join(map(str, cols)))
    return EXIT_NO


def cmd_cis_check(args) -> int:
    code = _load_bin(args.path)
    result = t_cis_partition(code, args.t)
    return _print_check(result, code.n, code.k, args.t, args.json)


def cmd_report(args) -> int:
    obj = _load_bin(args.path)
    d = min_distance(obj)
    dd = dual_distance(obj)
    so = is_self_orthogonal(obj)
    dd_out = "inf" if dd == math.inf else dd
    if args.json:
        out = _schema(obj.n, obj.k, d=d, dual_d=dd_out)
        out["self_orthogonal"] = so
        _emit_json(out)
    else:
        print(f"[{obj.n},{obj.k},{d}]")
        print(f"dual distance: {dd_out}")
        print(f"self-orthogonal: {'yes' if so else 'no'}")
    return EXIT_YES


def cmd_derive(args) -> int:
    code = _load_bin(args.path)
    fs = derive_bijections(code, args.t)
    if args.json:
        _emit_json({
            "t": args.t,
            "matrices": [f.matrix.to_strings() for f in fs],
        })
    else:
        for i, f in enumerate(fs, 1):
            print(f"F_{i} matrix:")
            for row in f.matrix.to_strings():
                print(row)
    return EXIT_YES


def cmd_cip(args) -> int:
    f1 = _load_perm(args.perm1)
    f2 = _load_perm(args.perm2)
    s = cip_strength(f1, f2)
    if args.json:
        _emit_json({"k": f1.k, "strength": s})
    else:
        print(f"strength: {s}")
    return EXIT_YES


def cmd_classify(args) -> int:
    reps, row = classify_tcis(args.k, args.t, allow_slow=args.allow_slow)
    if args.out is not None:
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            width = len(str(len(reps)))
            for i, code in enumerate(reps, 1):
                formats.save(outdir / f"code_{i:0{width}d}.code", code)
            (outdir / "table.txt").write_text(class_table_text([row]) + "\n")
        except OSError as e:
            where = e.filename or str(outdir)
            raise ValueError(f"cannot write {where!r}: {e.strerror}") from e
    if args.json:
        _emit_json({
            "k": args.k,
            "t": args.t,
            "total": row.total,
            "by_d": {str(d): {"so": so, "nso": nso} for d, (so, nso) in row.by_d},
        })
    else:
        print(class_table_text([row]))
    return EXIT_YES


def cmd_bounds(args) -> int:
    b = bounds(args.k, args.t)
    upper = min(b.singleton_upper, b.plotkin_upper)
    if args.json:
        _emit_json({
            "k": args.k,
            "t": args.t,
            "lower": b.trivial_lower,
            "upper": upper,
            "singleton_upper": b.singleton_upper,
            "plotkin_upper": b.plotkin_upper,
            "gv_rate_delta": b.gv_rate_delta,
        })
    else:
        print(f"lower: {b.trivial_lower}")
        print(f"upper: {upper}")
        print(f"  singleton: {b.singleton_upper}")
        print(f"  plotkin: {b.plotkin_upper}")
        print(f"gv rate delta: {b.gv_rate_delta:.6f}")
    return EXIT_YES


def cmd_masscheck(args) -> int:
    rep = mass_formula_check(args.k, args.t)
    if args.json:
        _emit_json({
            "k": rep.k,
            "t": rep.t,
            "group_power": rep.group_power,
            "classes": len(rep.class_sizes),
            "class_sizes": list(rep.class_sizes),
            "consistent": rep.consistent,
        })
    else:
        print(f"systematic codes |GL({rep.k},2)|^{rep.t - 1}: {rep.group_power}")
        print(f"classes: {len(rep.class_sizes)}")
        print(f"orbit sizes: {' '.join(map(str, rep.class_sizes))}")
        print(f"consistent: {'yes' if rep.consistent else 'no'}")
    return EXIT_YES


def cmd_z4_report(args) -> int:
    code = _load_z4(args.path)
    img = gray_image(code)
    lee = lee_min_distance(code)
    if args.json:
        _emit_json({
            "n": code.n,
            "k": code.k,
            "free": code.free,
            "lee_distance": lee,
            "gray_image": {"n": img.n, "size": img.size, "d": lee},
        })
    else:
        print(f"z4 [{code.n},{code.k}] free: {'yes' if code.free else 'no'}")
        print(f"lee distance: {lee}")
        print(f"gray image: ({img.n}, {img.size}, {lee})")
    return EXIT_YES


def cmd_z4_cis_check(args) -> int:
    code = _load_z4(args.path)
    result = z4_t_cis_partition(code, args.t)
    return _print_check(result, code.n, code.k, args.t, args.json)


def cmd_z4_derive(args) -> int:
    code = _load_z4(args.path)
    fs = z4_derive_bijections(code, args.t)
    if args.json:
        _emit_json({"t": args.t, "perms": [list(f.table) for f in fs]})
    else:
        for i, f in enumerate(fs, 1):
            print(f"F_{i}:")
            print(formats.emit(f), end="")
    return EXIT_YES


def _add_common(p) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


@functools.cache  # parsing leaves the tree unchanged, so build it once
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tcis",
        description="Complementary-information-set code toolkit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cis-check", help="test a binary code for a t-partition")
    p.add_argument("path")
    p.add_argument("t", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_cis_check)

    p = sub.add_parser("report", help="parameters, dual distance, self-orthogonality")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("derive", help="masking bijections from a systematic t-CIS code")
    p.add_argument("path")
    p.add_argument("t", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("cip", help="correlation-immunity strength of a pair")
    p.add_argument("perm1")
    p.add_argument("perm2")
    _add_common(p)
    p.set_defaults(func=cmd_cip)

    p = sub.add_parser("classify", help="inequivalent t-CIS codes of length tk")
    p.add_argument("k", type=int)
    p.add_argument("t", type=int, nargs="?", default=3)
    p.add_argument("--allow-slow", action="store_true",
                   help="permit the length-15 census, k = 5, t = 3")
    p.add_argument("--out", metavar="DIR",
                   help="write representatives and the table row to DIR")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bounds", help="distance bounds for [tk,k] codes")
    p.add_argument("k", type=int)
    p.add_argument("t", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("masscheck", help="t-CIS class sizes summing to |GL(k,2)|^(t-1)")
    p.add_argument("k", type=int)
    p.add_argument("t", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_masscheck)

    z4 = sub.add_parser("z4", help="quaternary code commands")
    z4sub = z4.add_subparsers(dest="z4_command", required=True)

    p = z4sub.add_parser("report", help="Lee distance and Gray image parameters")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_z4_report)

    p = z4sub.add_parser("cis-check", help="test a quaternary code for a t-partition")
    p.add_argument("path")
    p.add_argument("t", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_z4_cis_check)

    p = z4sub.add_parser("derive", help="masking bijections through the Gray map")
    p.add_argument("path")
    p.add_argument("t", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_z4_derive)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"error: cannot read {e.filename!r}: {e.strerror}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
