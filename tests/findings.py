"""Measured findings as code: each function regenerates one table that
ROADMAP reports, as rows of (check, family, lambda, n, status,
differing-weight count, first differing weight).  A row's status is
"agree" or "differ"; an agreeing row has count 0 and no first weight.

``d3_a3_rows`` is ROADMAP item 17's first table, the D3 = A3 arbiter for
the type-D rule (item 3).  The index map D(1,2,3) -> A(1,3,2) identifies
the two root data, so P of D3 lambda should equal P of A3 at the mapped
lambda, with every weight mapped the same way, once D's coefficient at w is
twisted by q^ht, ht = h . (lambda - w) / 2 the height of the drop
(h = D3's ``height_vec``).  Both sides are compared weight by weight in
``oracles.gauss_normal_form``, and the first differing weight is the
highest in A3's fixed order, in A3's coordinates.

Run as a script (``python tests/findings.py``, with the package importable)
it prints every row as one JSON object per line.  The tier-1 tests pin
each row's status (``tests/test_findings.py``).
"""
from __future__ import annotations

import itertools
import json
from operator import mul, sub
from typing import NamedTuple

from crystalmds import CartanSpec, build_root_system, p_part
from oracles import gauss_normal_form


class Row(NamedTuple):
    check: str
    family: str
    lam: tuple[int, ...]
    n: int
    status: str                         # "agree" or "differ"
    count: int                          # weights at which the sides differ
    first: tuple[int, ...] | None       # the highest of them, None if none


D3_A3_LAMBDAS = tuple(itertools.product((1, 2, 3), repeat=3))
D3_A3_DEGREES = range(1, 6)


def _d3_to_a3(v):
    return v[0], v[2], v[1]


def d3_a3_row(lam: tuple[int, ...], n: int) -> Row:
    """P of D3 ``lam``, twisted by q^ht and mapped to A3, against P of A3 at
    the mapped lambda, in ``gauss_normal_form`` weight by weight."""
    d3, a3 = build_root_system(CartanSpec("D", 3)), build_root_system(CartanSpec("A", 3))
    want = {w: gauss_normal_form(c, n)
            for w, c in p_part(a3, _d3_to_a3(lam), n).terms.items()}
    got = {}
    for w, c in p_part(d3, lam, n).terms.items():
        # q^ht is sqrt(q)^(h . (lam - w)) in the normal form's exponents
        half = sum(map(mul, d3.height_vec, map(sub, lam, w)))
        got[_d3_to_a3(w)] = {key: {e + half: x for e, x in part.items()}
                             for key, part in gauss_normal_form(c, n).items()}
    diff = [w for w in got.keys() | want.keys() if got.get(w, {}) != want.get(w, {})]
    first = max(diff, key=lambda w: (sum(map(mul, a3.height_vec, w)), w), default=None)
    return Row("d3_a3", "D", tuple(lam), n, "differ" if diff else "agree", len(diff), first)


def d3_a3_rows() -> list[Row]:
    """``d3_a3_row`` for lambda in {1,2,3}^3 and n = 1..5."""
    return [d3_a3_row(lam, n) for lam in D3_A3_LAMBDAS for n in D3_A3_DEGREES]


if __name__ == "__main__":
    for row in d3_a3_rows():
        print(json.dumps(row._asdict()))
