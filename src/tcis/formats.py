"""Text file formats for codes and permutations.

Four formats, distinguished by the header line:

    bin n k     k rows of n characters from {0,1}
    z4 n k      k rows of n characters from {0,1,2,3}
    qc t m      t whitespace-separated octal tokens, one polynomial each
    perm k      2^k rows of k characters from {0,1}; row x is the image of x

Everywhere the leftmost character of a row is bit 0 (coordinate 1 in
1-based reports).  '#' starts a comment; comments and blank lines are
ignored on parse.  emit() writes the canonical comment-free form, and
emit(parse(text)) == text for canonical inputs.
"""
from __future__ import annotations

from .boolfun import BooleanPermutation
from .codes import LinearCode
from .construct import QcSpec
from .gf2 import BitMatrix, vec_from_str, vec_to_str
from .z4 import Z4Code, Z4Matrix

__all__ = ["parse", "emit", "load", "save"]


def _tokens(text: str) -> list[list[str]]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line.split())
    return lines


def _header(lines: list[list[str]], kind: str, nargs: int) -> tuple[int, ...]:
    head = lines[0]
    if len(head) != 1 + nargs:
        raise ValueError(f"malformed {kind} header: {' '.join(head)!r}")
    try:
        vals = tuple(int(tok) for tok in head[1:])
    except ValueError:
        raise ValueError(f"malformed {kind} header: {' '.join(head)!r}") from None
    if any(v <= 0 for v in vals):
        raise ValueError(f"malformed {kind} header: {' '.join(head)!r}")
    return vals


def _body_rows(lines: list[list[str]], expected: int, kind: str) -> list[str]:
    rows = [tok for line in lines[1:] for tok in line]
    if len(rows) != expected:
        raise ValueError(f"{kind} body has {len(rows)} rows, expected {expected}")
    return rows


def parse(text: str):
    """Parse any of the four formats, dispatching on the header keyword."""
    lines = _tokens(text)
    if not lines:
        raise ValueError("empty file")
    kind = lines[0][0]
    if kind == "bin":
        n, k = _header(lines, "bin", 2)
        rows = _body_rows(lines, k, "bin")
        for r in rows:
            if len(r) != n:
                raise ValueError(f"bin row {r!r} is not {n} bits")
        return LinearCode(BitMatrix([vec_from_str(r) for r in rows], n))
    if kind == "z4":
        n, k = _header(lines, "z4", 2)
        rows = _body_rows(lines, k, "z4")
        for r in rows:
            if len(r) != n:
                raise ValueError(f"z4 row {r!r} is not {n} digits")
        return Z4Code(Z4Matrix.from_strings(rows))
    if kind == "qc":
        t, m = _header(lines, "qc", 2)
        toks = _body_rows(lines, t, "qc")
        try:
            polys = tuple(int(tok, 8) for tok in toks)
        except ValueError:
            raise ValueError("qc body tokens must be octal") from None
        return QcSpec(t, m, polys)
    if kind == "perm":
        (k,) = _header(lines, "perm", 1)
        rows = _body_rows(lines, 1 << k, "perm")
        for r in rows:
            if len(r) != k:
                raise ValueError(f"perm row {r!r} is not {k} bits")
        table = [vec_from_str(r) for r in rows]
        return BooleanPermutation(k, table)
    raise ValueError(f"unknown format {kind!r}")


def emit(obj) -> str:
    """Canonical text form of a parsed object."""
    if isinstance(obj, LinearCode):
        body = "\n".join(obj.gen.to_strings())
        return f"bin {obj.n} {obj.k}\n{body}\n"
    if isinstance(obj, Z4Code):
        body = "\n".join(obj.gen.to_strings())
        return f"z4 {obj.n} {obj.k}\n{body}\n"
    if isinstance(obj, QcSpec):
        body = " ".join(oct(p)[2:] for p in obj.polys)
        return f"qc {obj.t} {obj.m}\n{body}\n"
    if isinstance(obj, BooleanPermutation):
        body = "\n".join(vec_to_str(v, obj.k) for v in obj.table)
        return f"perm {obj.k}\n{body}\n"
    raise TypeError(f"cannot emit {type(obj).__name__}")


def load(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        raise ValueError(f"{path}: not an ASCII text file")
    return parse(data.decode("ascii"))


def save(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(emit(obj))
