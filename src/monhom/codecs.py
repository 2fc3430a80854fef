"""Strict JSON readers and writers for monoids and coefficient modules.

Writers emit canonical JSON: sorted keys, two-space indent, one trailing
newline.  Equal values therefore serialize to byte-identical files, which
the command-line reports rely on.

Readers are strict: unknown fields, missing fields, wrong types, ragged
matrices, and out-of-range table entries are all rejected with a
``ParseError`` naming the offending location (for example
``table[2][1]``).  A corrupted file fails loudly instead of half-loading.
"""

import json

from .errors import ParseError
from .exact_linalg import IntMatrix
from .hc_modules import TabulatedHCModule, validate_module
from .monoids import validate_monoid

MONOID_FORMAT = "monoid"
TABULATED_FORMAT = "tabulated-module"


def dumps(payload):
    """Canonical JSON text for a payload of plain dicts/lists/ints/strings."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def loads(text, where="input"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc


def _expect_object(payload, where):
    if not isinstance(payload, dict):
        raise ParseError(f"{where}: expected an object, got "
                         f"{type(payload).__name__}")


def _check_fields(payload, required, where, optional=()):
    unknown = sorted(set(payload) - set(required) - set(optional))
    if unknown:
        raise ParseError(f"{where}: unknown fields {unknown}")
    missing = sorted(set(required) - set(payload))
    if missing:
        raise ParseError(f"{where}: missing fields {missing}")


def _expect_int(value, where):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}: expected an integer, got "
                         f"{type(value).__name__}")
    return value


def _expect_list(value, where):
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got "
                         f"{type(value).__name__}")
    return value


# -- matrices -----------------------------------------------------------

def matrix_to_payload(mat):
    """Explicit shape plus dense rows, so zero-row and zero-column
    matrices survive the round trip."""
    return {"rows": mat.rows, "cols": mat.cols,
            "entries": [list(row) for row in mat.data]}


def matrix_from_payload(payload, where):
    _expect_object(payload, where)
    _check_fields(payload, ("rows", "cols", "entries"), where)
    rows = _expect_int(payload["rows"], f"{where}.rows")
    cols = _expect_int(payload["cols"], f"{where}.cols")
    if rows < 0 or cols < 0:
        raise ParseError(f"{where}: negative shape {rows}x{cols}")
    entries = _expect_list(payload["entries"], f"{where}.entries")
    if len(entries) != rows:
        raise ParseError(f"{where}.entries: {len(entries)} rows, "
                         f"expected {rows}")
    for i, row in enumerate(entries):
        _expect_list(row, f"{where}.entries[{i}]")
        if len(row) != cols:
            raise ParseError(f"{where}.entries[{i}]: {len(row)} values, "
                             f"expected {cols}")
        for j, v in enumerate(row):
            _expect_int(v, f"{where}.entries[{i}][{j}]")
    if rows == 0:
        return IntMatrix.zeros(0, cols)
    return IntMatrix(entries)


# -- monoids ------------------------------------------------------------

def monoid_to_payload(monoid):
    payload = monoid.to_json()
    payload["format"] = MONOID_FORMAT
    return payload


def monoid_from_payload(payload, where="monoid"):
    _expect_object(payload, where)
    _check_fields(payload, ("size", "identity", "table"), where,
                  optional=("format",))
    if payload.get("format", MONOID_FORMAT) != MONOID_FORMAT:
        raise ParseError(f"{where}.format: expected {MONOID_FORMAT!r}, "
                         f"got {payload['format']!r}")
    size = _expect_int(payload["size"], f"{where}.size")
    identity = _expect_int(payload["identity"], f"{where}.identity")
    table = _expect_list(payload["table"], f"{where}.table")
    if size < 1:
        raise ParseError(f"{where}.size: must be positive, got {size}")
    if not (0 <= identity < size):
        raise ParseError(f"{where}.identity: {identity} not in [0, {size})")
    if len(table) != size:
        raise ParseError(f"{where}.table: {len(table)} rows, expected {size}")
    for i, row in enumerate(table):
        _expect_list(row, f"{where}.table[{i}]")
        if len(row) != size:
            raise ParseError(f"{where}.table[{i}]: {len(row)} values, "
                             f"expected {size}")
        for j, v in enumerate(row):
            _expect_int(v, f"{where}.table[{i}][{j}]")
            if not (0 <= v < size):
                raise ParseError(f"{where}.table[{i}][{j}]: entry {v} "
                                 f"not in [0, {size})")
    return validate_monoid(size, identity, table)


# -- tabulated divisibility-category modules ----------------------------

def tabulated_to_payload(module):
    act = [{"c": c, "a": a, "matrix": matrix_to_payload(mat)}
           for (c, a), mat in sorted(module.act.items())]
    return {"format": TABULATED_FORMAT,
            "monoid": monoid_to_payload(module.monoid),
            "side": module.side,
            "ranks": list(module.ranks),
            "act": act,
            "rels": [matrix_to_payload(m) for m in module.rels]}


def tabulated_from_payload(payload, where="module"):
    _expect_object(payload, where)
    _check_fields(payload, ("format", "monoid", "side", "ranks", "act",
                            "rels"), where)
    if payload["format"] != TABULATED_FORMAT:
        raise ParseError(f"{where}.format: expected {TABULATED_FORMAT!r}, "
                         f"got {payload['format']!r}")
    monoid = monoid_from_payload(payload["monoid"], f"{where}.monoid")
    side = payload["side"]
    if side not in ("left", "right"):
        raise ParseError(f"{where}.side: expected 'left' or 'right', "
                         f"got {side!r}")
    ranks = _expect_list(payload["ranks"], f"{where}.ranks")
    if len(ranks) != monoid.size:
        raise ParseError(f"{where}.ranks: {len(ranks)} values, expected "
                         f"{monoid.size}")
    for i, r in enumerate(ranks):
        if _expect_int(r, f"{where}.ranks[{i}]") < 0:
            raise ParseError(f"{where}.ranks[{i}]: negative rank {r}")
    act = {}
    for k, item in enumerate(_expect_list(payload["act"], f"{where}.act")):
        spot = f"{where}.act[{k}]"
        _expect_object(item, spot)
        _check_fields(item, ("c", "a", "matrix"), spot)
        c = _expect_int(item["c"], f"{spot}.c")
        a = _expect_int(item["a"], f"{spot}.a")
        for name, v in (("c", c), ("a", a)):
            if not (0 <= v < monoid.size):
                raise ParseError(f"{spot}.{name}: element {v} not in "
                                 f"[0, {monoid.size})")
        if (c, a) in act:
            raise ParseError(f"{spot}: duplicate pair ({c}, {a})")
        act[(c, a)] = matrix_from_payload(item["matrix"], f"{spot}.matrix")
    needed = {(c, a) for c in monoid.elements for a in monoid.elements}
    if set(act) != needed:
        sample = sorted(needed - set(act))[:3]
        raise ParseError(f"{where}.act: missing pairs {sample}")
    rels_payload = _expect_list(payload["rels"], f"{where}.rels")
    if len(rels_payload) != monoid.size:
        raise ParseError(f"{where}.rels: {len(rels_payload)} matrices, "
                         f"expected {monoid.size}")
    rels = [matrix_from_payload(item, f"{where}.rels[{i}]")
            for i, item in enumerate(rels_payload)]
    for a, mat in enumerate(rels):
        if mat.rows != ranks[a]:
            raise ParseError(f"{where}.rels[{a}]: {mat.rows} rows, "
                             f"expected rank {ranks[a]}")
    module = TabulatedHCModule(side, monoid, ranks, act, rels)
    bad = validate_module(module)
    if bad:
        law, witness = bad[0]
        raise ParseError(f"{where}: module law {law} fails at {witness}")
    return module


# -- files --------------------------------------------------------------

_READERS = {MONOID_FORMAT: monoid_from_payload,
            TABULATED_FORMAT: tabulated_from_payload}


def read_file(path, expected_format):
    """Load one JSON file whose ``format`` field must match."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    payload = loads(text, where=path)
    _expect_object(payload, path)
    got = payload.get("format", MONOID_FORMAT)
    if got != expected_format:
        raise ParseError(f"{path}: format {got!r}, expected "
                         f"{expected_format!r}")
    return _READERS[expected_format](payload, where=path)

