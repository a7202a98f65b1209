"""Independent reference computations and the output checks built on them.

Nothing here calls the package under test.  Masks come from evaluating the
generated formula trees with bitwise algebra on 2^n-bit integers, fuzzy part
truths from Kronecker products of (1 - t_i, t_i), and three-component part
values from the telescoping closed form prod(a), prod(a+b) - prod(a),
prod(a+b+c) - prod(a+b) for the order a < b < c.  Checks raise Mismatch.
"""

from __future__ import annotations

from functools import cache
from math import fsum, prod

TOL = 1e-12        # algebraic identities
TOL_UNITY = 1e-9   # fuzzy partition of unity and t + f = 1


class Mismatch(Exception):
    """An output disagrees with the reference computation."""


def _close(got, want, tol, what):
    if not abs(got - want) <= tol:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


@cache
def projections(n):
    """Mask of the parts inside variable i, for each i: blocks of 2^i zeros
    then 2^i ones, repeated over the 2^n bits."""
    full = (1 << (1 << n)) - 1
    return tuple(
        full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
        for i in range(n)
    )


_BIN = {
    "and": lambda a, b, full: a & b,
    "or": lambda a, b, full: a | b,
    "xor": lambda a, b, full: a ^ b,
    "implies": lambda a, b, full: (full ^ a) | b,
    "rev_implies": lambda a, b, full: a | (full ^ b),
    "iff": lambda a, b, full: full ^ a ^ b,
    "nand": lambda a, b, full: full ^ (a & b),
    "nor": lambda a, b, full: full ^ (a | b),
    "nonimplies": lambda a, b, full: a & (full ^ b),
    "rev_nonimplies": lambda a, b, full: (full ^ a) & b,
}


def truth_mask(tree, n):
    """Bit p is the formula's value at the corner where variable i is true
    exactly when bit i of p is set."""
    full = (1 << (1 << n)) - 1
    proj = projections(n)

    def ev(t):
        tag = t[0]
        if tag == "var":
            return proj[t[1]]
        if tag == "const":
            return full if t[1] else 0
        if tag == "not":
            return full ^ ev(t[1])
        return _BIN[t[1]](ev(t[2]), ev(t[3]), full)

    return ev(tree)


def label(mask, n):
    members = [str(i + 1) for i in range(n) if mask >> i & 1]
    return ("" if n <= 9 else ".").join(members) or "0"


def unlabel(text, n):
    if text == "0":
        return 0
    return sum(1 << (int(i) - 1) for i in (text if n <= 9 else text.split(".")))


def kron(pairs):
    """All 2^n products of (off_i, on_i) factors, indexed by part mask."""
    out = [1.0]
    for off, on in pairs:
        out = [x * off for x in out] + [x * on for x in out]
    return out


def fuzzy_parts(truths):
    return kron((1.0 - t, t) for t in truths)


def neutro_parts(triples, order):
    """Part values (T, I, F) by mask.  A member variable enters as (T, I, F),
    a non-member as its negation (F, I, T)."""
    idx = {"T": 0, "I": 1, "F": 2}
    a, b, c = (idx[ch] for ch in order)
    neg = [(v[2], v[1], v[0]) for v in triples]

    def prods(classes):
        return kron(
            (sum(ng[k] for k in classes), sum(v[k] for k in classes))
            for v, ng in zip(triples, neg)
        )

    pa, pab, pabc = prods((a,)), prods((a, b)), prods((a, b, c))
    parts = []
    for x, y, z in zip(pa, pab, pabc):
        bucket = [0.0, 0.0, 0.0]
        bucket[a], bucket[b], bucket[c] = x, y - x, z - y
        parts.append(tuple(bucket))
    return parts


def _neg(v):
    return (v[2], v[1], v[0])


def disjoint_union(values, tau):
    """Truths add; I and F add and are rescaled so the norm is exactly tau."""
    t = fsum(v[0] for v in values)
    i = fsum(v[1] for v in values)
    f = fsum(v[2] for v in values)
    if i + f <= 1e-12:
        return (t, 0.0, 0.0)
    scale = (tau - t) / (i + f)
    return (t, i * scale, f * scale)


def _members(mask, n):
    return [p for p in range(1 << n) if mask >> p & 1]


def route_value(route, mask, n, names, triples, parts, tau):
    """The aggregate that the named route must give for this mask."""
    full = (1 << (1 << n)) - 1
    if route == "empty" and mask == 0:
        return (0.0, 0.0, 1.0)
    if route == "full" and mask == full:
        return (1.0, 0.0, 0.0)
    word, _, arg = route.rpartition(" ")
    if word in ("projection", "complement") and arg in names:
        i = names.index(arg)
        literal = projections(n)[i] if word == "projection" else full ^ projections(n)[i]
        if mask == literal:
            return triples[i] if word == "projection" else _neg(triples[i])
    negated = word.startswith("negated ")
    kind = word.removeprefix("negated ")
    if kind in ("part", "union"):
        side = sorted(unlabel(x, n) for x in arg.split("+"))
        if side == _members(full ^ mask if negated else mask, n) and (
            (kind == "part") == (len(side) == 1)
        ):
            value = parts[side[0]] if kind == "part" else disjoint_union(
                [parts[p] for p in side], tau
            )
            return _neg(value) if negated else value
    raise Mismatch(f"route {route!r} does not fit shaded mask {mask:#x}")


def candidate_routes(mask, n, names):
    """Every route name that fits the mask, for outputs that do not say
    which route they took."""
    full = (1 << (1 << n)) - 1
    routes = ["empty", "full"]
    for name in names:
        routes += [f"projection {name}", f"complement {name}"]
    shaded, other = _members(mask, n), _members(full ^ mask, n)
    for prefix, side in (("", shaded), ("negated ", other)):
        if side:
            kind = "part" if len(side) == 1 else "union"
            routes.append(f"{prefix}{kind} " + "+".join(label(p, n) for p in side))
    return routes


def _check_mask(op, got, mask):
    """The optional fields that restate the shaded mask: n, index (the mask
    as an integer) and per-part shaded flags."""
    if got.get("n", op.n) != op.n:
        raise Mismatch(f"{op.kind}: n={got['n']}, want {op.n}")
    if got.get("index", mask) != mask:
        raise Mismatch(f"{op.kind} {op.text!r}: mask {got['index']:#x}, want {mask:#x}")
    if "shaded" in got and got["shaded"] != [mask >> p & 1 for p in range(1 << op.n)]:
        raise Mismatch(f"{op.kind}: shaded flags differ from the mask")


def check_codify(op, got):
    """got: index and optionally n, bits and labels."""
    want = truth_mask(op.tree, op.n)
    _check_mask(op, got, want)
    members = _members(want, op.n)
    if "bits" in got and got["bits"] != members:
        raise Mismatch(f"codify {op.text!r}: bits differ from the mask")
    if "labels" in got and got["labels"] != [label(p, op.n) for p in members]:
        raise Mismatch(f"codify {op.text!r}: part labels differ from the mask")


def check_fuzzy(op, got):
    """got: parts (t, f) by mask, aggregate (t, f), optionally strategy and
    the mask fields."""
    mask = truth_mask(op.tree, op.n)
    members = _members(mask, op.n)
    want = fuzzy_parts(op.values)
    parts = got["parts"]
    if len(parts) != len(want):
        raise Mismatch(f"fuzzy: {len(parts)} parts, want {len(want)}")
    for p, ((t, f), w) in enumerate(zip(parts, want)):
        _close(t, w, TOL, f"fuzzy part {p} truth")
        _close(f, 1.0 - t, TOL_UNITY, f"fuzzy part {p} falsehood")
    _close(fsum(t for t, _ in parts), 1.0, TOL_UNITY, "fuzzy partition of unity")
    _check_mask(op, got, mask)
    t = fsum(want[p] for p in members)
    _close(got["aggregate"][0], t, TOL, "fuzzy aggregate truth")
    _close(got["aggregate"][1], 1.0 - t, TOL_UNITY, "fuzzy aggregate falsehood")
    if got.get("strategy") is not None:
        kind = "part " if len(members) == 1 else "union "
        fits = kind + "+".join(label(p, op.n) for p in members) if members else "empty"
        if got["strategy"] != fits:
            raise Mismatch(f"fuzzy: strategy {got['strategy']!r} does not fit the mask")


def _check_aggregate(mask, n, names, triples, parts, got_value, route, tau):
    if route is not None:
        want = route_value(route, mask, n, names, triples, parts, tau)
        for g, w in zip(got_value, want):
            _close(g, w, TOL, f"aggregate by {route!r}")
        return
    for route in candidate_routes(mask, n, names):
        try:
            want = route_value(route, mask, n, names, triples, parts, tau)
        except Mismatch:
            continue
        if all(abs(g - w) <= TOL for g, w in zip(got_value, want)):
            return
    raise Mismatch(f"aggregate {got_value!r} fits no route for mask {mask:#x}")


def check_neutro(op, got):
    """got: parts (T, I, F) by mask, aggregate, optionally strategy, tau,
    oracle_delta and the mask fields."""
    mask = truth_mask(op.tree, op.n)
    _check_mask(op, got, mask)
    want = neutro_parts(op.values, op.order)
    parts = got["parts"]
    if len(parts) != len(want):
        raise Mismatch(f"neutro: {len(parts)} parts, want {len(want)}")
    for p, (g, w) in enumerate(zip(parts, want)):
        for ch, x, y in zip("TIF", g, w):
            _close(x, y, TOL, f"neutro part {p} {ch} under {op.order}")
    tau = prod(sum(v) for v in op.values)
    if got.get("tau") is not None:
        _close(got["tau"], tau, TOL, "tau")
    _check_aggregate(mask, op.n, op.names, op.values, want, got["aggregate"],
                     got.get("strategy"), tau)
    if op.kind == "crosscheck":
        delta = got.get("oracle_delta")
        if delta is None or not delta <= TOL:
            raise Mismatch(f"oracle delta {delta!r} exceeds {TOL}")


def _poly(text, t1, t2):
    """Value of a truth polynomial printed like '1 - t1 - t2 + 2*t1*t2'."""
    env = {"t1": t1, "t2": t2}
    total, sign = 0.0, 1.0
    for token in text.split():
        if token in "+-":
            sign = 1.0 if token == "+" else -1.0
            continue
        term = 1.0
        for factor in token.split("*"):
            term *= env[factor] if factor in env else float(factor)
        total += sign * term
    return total


GRID = tuple(i / 5 for i in range(6))


def check_table(op, got):
    """got: table1 rows (index, polynomial text) and table2 rows (index,
    (T, I, F), strategy, tau)."""
    for rows in (got["table1"], got["table2"]):
        if sorted(row[0] for row in rows) != list(range(16)):
            raise Mismatch("table rows do not cover the 16 binary operators")
    for index, text in got["table1"]:
        for t1 in GRID:
            for t2 in GRID:
                extension = fsum(
                    w for p, w in enumerate(fuzzy_parts((t1, t2))) if index >> p & 1
                )
                _close(_poly(text, t1, t2), extension, TOL,
                       f"table 1 row {index} {text!r} at ({t1}, {t2})")
    parts = neutro_parts(op.values, op.order)
    tau = prod(sum(v) for v in op.values)
    for index, value, route, row_tau in got["table2"]:
        if row_tau is not None:
            _close(row_tau, tau, TOL, f"table 2 row {index} tau")
        _check_aggregate(index, 2, op.names, op.values, parts, value, route, tau)


CHECKS = {
    "codify": check_codify,
    "fuzzy": check_fuzzy,
    "neutro": check_neutro,
    "crosscheck": check_neutro,
    "table": check_table,
}
