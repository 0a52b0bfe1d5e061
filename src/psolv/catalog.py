"""Named group constructions, group documents, and reports.

A recipe is a colon-separated constructor like "dihedral:4" or
"extraspecial:3:plus", plus the functional form "product(a,b)" for direct
products. Recipe text doubles as the group's id in reports. Each kind is
one `_KINDS` record: its builder, its argument types, and the degree and
order of its group. `_build` refuses a recipe past MAX_DEGREE points or
DEFAULT_ENUM_CAP elements before any stabilizer chain is built, and raises
InternalMismatch when a built group's order differs from the table, so a
typo in a multiplication rule cannot silently poison downstream checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import GroupParseError, InternalMismatch, UnsupportedParameters
from .group import DEFAULT_ENUM_CAP, MAX_DEGREE, PermutationGroup
from .perm import Permutation
from .series import exponent, require_prime

TOOL_VERSION = "0.1.0"
REPORT_SCHEMA = "psolv-report/1"


def _cycle_images(n):
    return tuple((i + 1) % n for i in range(n))


def _cyclic(n: int) -> PermutationGroup:
    if n < 1:
        raise UnsupportedParameters("cyclic order must be at least 1")
    if n == 1:
        return PermutationGroup(1, [])
    return PermutationGroup(n, [Permutation(_cycle_images(n))])


def _elementary_abelian(p: int, k: int) -> PermutationGroup:
    require_prime(p)
    if k < 1:
        raise UnsupportedParameters("the rank must be at least 1")
    degree = p * k
    gens = []
    for b in range(k):
        images = list(range(degree))
        for i in range(p):
            images[b * p + i] = b * p + (i + 1) % p
        gens.append(Permutation(tuple(images)))
    return PermutationGroup(degree, gens)


def _dihedral(n: int) -> PermutationGroup:
    if n < 3:
        raise UnsupportedParameters("dihedral groups need at least 3 vertices")
    rot = Permutation(_cycle_images(n))
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    return PermutationGroup(n, [rot, ref])


def _symmetric(n: int) -> PermutationGroup:
    if n < 2:
        raise UnsupportedParameters("symmetric groups need at least 2 points")
    swap = Permutation((1, 0) + tuple(range(2, n)))
    return PermutationGroup(n, [swap, Permutation(_cycle_images(n))])


def _alternating(n: int) -> PermutationGroup:
    if n < 3:
        raise UnsupportedParameters("alternating groups need at least 3 points")
    gens = []
    for i in range(n - 2):
        images = list(range(n))
        images[i], images[i + 1], images[i + 2] = i + 1, i + 2, i
        gens.append(Permutation(tuple(images)))
    return PermutationGroup(n, gens)


def _matrix_perm(q, m, vecs, index):
    def image(v):
        return ((v[0] * m[0][0] + v[1] * m[1][0]) % q,
                (v[0] * m[0][1] + v[1] * m[1][1]) % q)
    return Permutation(tuple(index[image(v)] for v in vecs))


def _linear_group(q: int, extra_gen) -> PermutationGroup:
    # natural action on the q^2 - 1 nonzero row vectors, right multiplication
    vecs = [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}
    mats = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    if extra_gen is not None:
        mats.append(extra_gen)
    return PermutationGroup(len(vecs),
                            [_matrix_perm(q, m, vecs, index) for m in mats])


def _sl2(q: int) -> PermutationGroup:
    if q not in (2, 3):
        raise UnsupportedParameters("only the fields with 2 and 3 elements "
                                    "are built in")
    return _linear_group(q, None)


def _gl2(q: int) -> PermutationGroup:
    if q != 3:
        raise UnsupportedParameters("only the field with 3 elements is "
                                    "built in")
    return _linear_group(q, ((2, 0), (0, 1)))


def _affine(p: int) -> PermutationGroup:
    require_prime(p)
    root = None
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            root = g
            break
    if root is None:
        raise UnsupportedParameters("the prime has no primitive root in "
                                    "range, which cannot happen for p >= 3")
    shift = Permutation(tuple((i + 1) % p for i in range(p)))
    scale = Permutation(tuple(i * root % p for i in range(p)))
    return PermutationGroup(p, [shift, scale])


def _extraspecial_table(p: int, sign: str):
    """Element list, multiplication rule, and two generators for the
    extraspecial group of order p^3 of the given isomorphism type."""
    if p == 2:
        els = [(i, j) for i in range(4) for j in range(2)]
        if sign == "plus":
            def mul(x, y):
                return ((x[0] + (-1) ** x[1] * y[0]) % 4, x[1] ^ y[1])
        else:
            def mul(x, y):
                return ((x[0] + (-1) ** x[1] * y[0] + 2 * (x[1] & y[1])) % 4,
                        x[1] ^ y[1])
        return els, mul, [(1, 0), (0, 1)]
    if sign == "plus":
        els = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]

        def mul(x, y):
            return ((x[0] + y[0]) % p, (x[1] + y[1]) % p,
                    (x[2] + y[2] + x[0] * y[1]) % p)
        return els, mul, [(1, 0, 0), (0, 1, 0)]
    els = [(i, j) for i in range(p * p) for j in range(p)]

    def mul(x, y):
        return ((x[0] + y[0] * (1 + p) ** x[1]) % (p * p), (x[1] + y[1]) % p)
    return els, mul, [(1, 0), (0, 1)]


def _extraspecial(p: int, sign: str) -> PermutationGroup:
    require_prime(p)
    if sign not in ("plus", "minus"):
        raise UnsupportedParameters("the type must be plus or minus")
    els, mul, gens = _extraspecial_table(p, sign)
    els = sorted(els)
    index = {x: i for i, x in enumerate(els)}
    e = els[0]
    if any(mul(e, x) != x or mul(x, e) != x for x in els):
        raise InternalMismatch("the identity row of the multiplication "
                               "table is wrong")

    def right_mul_perm(g):
        return Permutation(tuple(index[mul(x, g)] for x in els))

    G = PermutationGroup(len(els), [right_mul_perm(g) for g in gens])
    want_exp = 4 if p == 2 else (p if sign == "plus" else p * p)
    if exponent(G) != want_exp:
        raise InternalMismatch("extraspecial group has the wrong exponent")
    if p == 2:
        involutions = sum(1 for x in els if x != e and mul(x, x) == e)
        want = 5 if sign == "plus" else 1
        if involutions != want:
            raise InternalMismatch("extraspecial table has the wrong number "
                                   "of involutions")
    return G


def _wreath_cyclic(p: int, q: int) -> PermutationGroup:
    """Cyclic group of order p wreathed by a cyclic top of order q, acting
    on p*q points in q blocks of p."""
    require_prime(p)
    if q < 2:
        raise UnsupportedParameters("the top cycle must have length at "
                                    "least 2")
    degree = p * q
    base = list(range(degree))
    for i in range(p):
        base[i] = (i + 1) % p
    top = tuple((i + p) % degree for i in range(degree))
    return PermutationGroup(degree, [Permutation(tuple(base)),
                                     Permutation(top)])


def _shift_perm(g: Permutation, offset: int, degree: int) -> Permutation:
    images = list(range(degree))
    for i, x in enumerate(g.images):
        images[offset + i] = offset + x
    return Permutation(tuple(images))


def _product(A: PermutationGroup, B: PermutationGroup) -> PermutationGroup:
    degree = A.degree + B.degree
    gens = [_shift_perm(g, 0, degree) for g in A.generators]
    gens += [_shift_perm(g, A.degree, degree) for g in B.generators]
    return PermutationGroup(degree, gens)


class _Kind(NamedTuple):
    """A builder, its argument types, and its group's degree and order."""

    build: Callable[..., PermutationGroup]
    arg_types: tuple
    degree: Callable[..., int]
    order: Callable[..., int]


_KINDS = {
    "cyclic": _Kind(_cyclic, (int,), lambda n: n, lambda n: n),
    "elementary_abelian": _Kind(_elementary_abelian, (int, int),
                                lambda p, k: p * k, lambda p, k: p ** k),
    "dihedral": _Kind(_dihedral, (int,), lambda n: n, lambda n: 2 * n),
    "symmetric": _Kind(_symmetric, (int,), lambda n: n, math.factorial),
    "alternating": _Kind(_alternating, (int,), lambda n: n,
                         lambda n: math.factorial(n) // 2),
    "sl2": _Kind(_sl2, (int,), lambda q: q * q - 1, lambda q: q ** 3 - q),
    "gl2": _Kind(_gl2, (int,), lambda q: q * q - 1,
                 lambda q: (q * q - 1) * (q * q - q)),
    "affine": _Kind(_affine, (int,), lambda p: p, lambda p: p * (p - 1)),
    "extraspecial": _Kind(_extraspecial, (int, str), lambda p, sign: p ** 3,
                          lambda p, sign: p ** 3),
    "wreath_cyclic": _Kind(_wreath_cyclic, (int, int), lambda p, q: p * q,
                           lambda p, q: p ** q * q),
}


def _split_top_level(text: str):
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
            # text inside a product, so depth d means d + 1 nested products;
            # each adds a leaf, so a deeper recipe cannot fit the degree
            # ceiling, and refusing it here bounds the recursion
            if depth >= MAX_DEGREE:
                raise GroupParseError(
                    f"products nested more than {MAX_DEGREE} deep",
                    line=1, column=i + 1)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GroupParseError("unbalanced parentheses in recipe",
                                      line=1, column=i + 1)
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise GroupParseError("unbalanced parentheses in recipe", line=1,
                              column=len(text))
    parts.append(text[start:])
    return parts


def parse_recipe(text: str):
    """Parse recipe text into a tree: ("product", [left, right]) or
    (kind, [typed args])."""
    t = text.strip()
    if not t:
        raise GroupParseError("empty recipe", line=1, column=1)
    if t.startswith("product(") and t.endswith(")"):
        inner = t[len("product("):-1]
        parts = _split_top_level(inner)
        if len(parts) != 2:
            raise GroupParseError("product takes exactly two factors",
                                  line=1, column=len("product(") + 1)
        return ("product", [parse_recipe(x) for x in parts])
    if "(" in t or ")" in t or "," in t:
        raise GroupParseError(f"malformed recipe {t!r}", line=1, column=1)
    parts = [x.strip() for x in t.split(":")]
    kind, raw_args = parts[0], parts[1:]
    if kind not in _KINDS:
        raise GroupParseError(f"unknown recipe kind {kind!r}", line=1,
                              column=1)
    arg_types = _KINDS[kind].arg_types
    if len(raw_args) != len(arg_types):
        raise GroupParseError(
            f"{kind} takes {len(arg_types)} argument(s), got {len(raw_args)}",
            line=1, column=1)
    args = []
    for raw, typ in zip(raw_args, arg_types):
        if typ is int:
            try:
                args.append(int(raw))
            except ValueError:
                raise GroupParseError(
                    f"expected an integer argument, got {raw!r}",
                    line=1, column=1) from None
        else:
            args.append(raw)
    return (kind, args)


def canonical_recipe(text: str) -> str:
    def render(node):
        kind, args = node
        if kind == "product":
            return f"product({render(args[0])},{render(args[1])})"
        return ":".join([kind] + [str(a) for a in args])
    return render(parse_recipe(text))


def _read(node, field: str) -> int:
    # the table's degree or order; a product's come from its two factors
    kind, args = node
    if kind != "product":
        return getattr(_KINDS[kind], field)(*args)
    a, b = (_read(x, field) for x in args)
    return a + b if field == "degree" else a * b


def _run_builders(node, built) -> PermutationGroup:
    # run the builders, factors first; only the extraspecial exponent check
    # builds a chain here, and its order p^3 is bounded by its degree
    kind, args = node
    try:
        G = (_product(*(_run_builders(x, built) for x in args))
             if kind == "product" else _KINDS[kind].build(*args))
    except UnsupportedParameters as e:
        raise GroupParseError(str(e), location=kind) from e
    built.append((node, G))
    return G


def _build(node) -> PermutationGroup:
    kind = node[0]
    degree = _read(node, "degree")
    if degree > MAX_DEGREE:
        raise GroupParseError(
            f"the recipe acts on {degree} points, more than the limit of "
            f"{MAX_DEGREE}", location=kind)
    built = []
    G = _run_builders(node, built)
    # read only now: an order formula trusts the arguments a builder accepted
    order = _read(node, "order")
    if order > DEFAULT_ENUM_CAP:
        raise GroupParseError(
            f"the recipe names a group of order {order}, more than the limit "
            f"of {DEFAULT_ENUM_CAP}", location=kind)
    for sub, H in built:
        if H.order() != _read(sub, "order"):
            raise InternalMismatch(f"{sub[0]} construction has the wrong order")
    return G


def build_group(text: str) -> PermutationGroup:
    """Build the group a recipe names, running its construction checks."""
    return _build(parse_recipe(text))


DEFAULT_CATALOG = (
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:8",
    "cyclic:9",
    "cyclic:15",
    "cyclic:16",
    "cyclic:27",
    "elementary_abelian:2:2",
    "elementary_abelian:2:3",
    "elementary_abelian:2:4",
    "elementary_abelian:3:2",
    "elementary_abelian:3:3",
    "dihedral:3",
    "dihedral:4",
    "dihedral:6",
    "dihedral:8",
    "symmetric:3",
    "symmetric:4",
    "symmetric:5",
    "symmetric:6",
    "alternating:4",
    "alternating:5",
    "sl2:2",
    "sl2:3",
    "gl2:3",
    "affine:5",
    "affine:7",
    "extraspecial:2:plus",
    "extraspecial:2:minus",
    "extraspecial:3:plus",
    "extraspecial:3:minus",
    "extraspecial:5:plus",
    "wreath_cyclic:2:3",
    "wreath_cyclic:2:4",
    "wreath_cyclic:2:5",
    "wreath_cyclic:3:3",
    "product(cyclic:9,cyclic:3)",
    "product(symmetric:3,cyclic:3)",
    "product(extraspecial:3:plus,cyclic:2)",
)


def _load_json(text: str):
    # json.loads, with bad or too deeply nested text as a GroupParseError
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise GroupParseError(f"invalid JSON: {e.msg}", line=e.lineno,
                              column=e.colno) from None
    except RecursionError:
        raise GroupParseError("invalid JSON: nested too deeply", line=1,
                              column=1) from None


def parse_group(text: str) -> PermutationGroup:
    """Read a group document: {"degree": n, "generators": [[images...]]}
    with 0-based image lists."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise GroupParseError("the document must be a JSON object",
                              location="$")
    degree = doc.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise GroupParseError("degree must be a positive integer",
                              location="degree")
    if degree > MAX_DEGREE:
        raise GroupParseError(
            f"degree {degree} is more than the limit of {MAX_DEGREE} points",
            location="degree")
    gens_doc = doc.get("generators")
    if not isinstance(gens_doc, list):
        raise GroupParseError("generators must be a list", location="generators")
    gens = []
    for idx, images in enumerate(gens_doc):
        loc = f"generators[{idx}]"
        if (not isinstance(images, list)
                or any(not isinstance(x, int) or isinstance(x, bool)
                       for x in images)):
            raise GroupParseError("a generator must be a list of integers",
                                  location=loc)
        if len(images) != degree or sorted(images) != list(range(degree)):
            raise GroupParseError(
                "a generator must list each point 0..degree-1 exactly once",
                location=loc)
        gens.append(Permutation(tuple(images)))
    return PermutationGroup(degree, gens)


def emit_group(G: PermutationGroup) -> str:
    doc = {"degree": G.degree,
           "generators": [list(g.images) for g in G.generators]}
    return json.dumps(doc, sort_keys=True)


@dataclass(frozen=True)
class Report:
    """One verdict about one group, tagged for emission.

    The payload carries TOOL_VERSION and a "timing" of null, so emitted
    reports are byte-for-byte reproducible and the schema keeps a stable
    place for a timing.
    """

    group_id: str
    statement_id: str
    verdict: dict

    @classmethod
    def of(cls, group_id: str, v) -> Report:
        """The report of one verdict about one group."""
        return cls(group_id, v.statement, v.to_payload())

    def to_payload(self):
        return {
            "tool_version": TOOL_VERSION,
            "group_id": self.group_id,
            "statement_id": self.statement_id,
            "verdict": self.verdict,
            "timing": None,
        }


def _verdict_status(v: dict) -> str:
    if v.get("is_finding"):
        return "FINDING"
    if v.get("report_only"):
        return "report"
    if not v.get("hypothesis_holds"):
        return "hypothesis not met"
    if v.get("conclusion_holds") is None:
        return "checked"
    return "consistent"


def _render_value(x):
    if isinstance(x, dict):
        return "{" + ", ".join(f"{k}={_render_value(v)}"
                               for k, v in sorted(x.items())) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_render_value(v) for v in x) + "]"
    return str(x)


def emit_report(reports, fmt: str = "text") -> str:
    """Render reports. "structured" is canonical JSON (sorted keys, stable
    layout); "text" is a deterministic human summary of the same content."""
    if fmt == "structured":
        doc = {"schema": REPORT_SCHEMA,
               "reports": [r.to_payload() for r in reports]}
        # json.dumps keeps every small encoded chunk in one list until the
        # final join; joining in batches holds little more than the text
        pieces, batch = [], []
        for chunk in json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc):
            batch.append(chunk)
            if len(batch) == 4096:
                pieces.append("".join(batch))
                batch.clear()
        pieces.append("".join(batch))
        pieces.append("\n")
        return "".join(pieces)
    if fmt != "text":
        raise UnsupportedParameters(f"unknown report format {fmt!r}")
    lines = []
    for r in reports:
        v = r.verdict
        lines.append(f"{r.group_id} | {r.statement_id}: {_verdict_status(v)}")
        params = v.get("parameters") or {}
        if params:
            lines.append("  " + _render_value(params))
        for w in v.get("witnesses") or ():
            lines.append(f"  witness: {_render_value(w)}")
        for n in v.get("notes") or ():
            lines.append(f"  note: {n}")
    findings = sum(1 for r in reports if r.verdict.get("is_finding"))
    lines.append(f"{len(reports)} report(s), {findings} finding(s)")
    return "\n".join(lines) + "\n"
