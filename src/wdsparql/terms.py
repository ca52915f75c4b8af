"""Terms, triple patterns, t-graphs and solution mappings.

A term is either an IRI (an opaque token) or a variable written ``?name``.
A t-graph is a finite set of triple patterns; a t-graph without variables
is an RDF graph.  A mapping is a partial function from variables to IRIs
(the SPARQL solution object).

Terms and triples are immutable values that compute their hash once, at
construction, since every layer above keys sets and dicts by them.  A
t-graph keeps its triples three ways: the canonical sorted tuple, a
frozenset for membership, and a lazily built index from (position, IRI)
to the triples holding that IRI there.  `TGraph.matching` answers "which
triples can this pattern triple map onto" from that index; it is the one
place where the homomorphism search, the evaluator and the pebble game
look into a graph.  A mapping keeps a dict beside its sorted bindings.

File formats
------------
Graph files: one triple per line, three whitespace-separated terms with an
optional trailing ``.``; blank lines and lines starting with ``#`` are
ignored.  Mapping files: one ``?var = iri`` binding per line.

Variable names use the alphabet ``[A-Za-z0-9_]``; the extra character ``#``
is reserved for internally generated fresh variables and is rejected by the
pattern parser, which keeps generated names collision-free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    DuplicateBinding,
    IncompatibleMappings,
    NonGroundGraph,
    ParseError,
    UnboundVariable,
)

_VAR_NAME = re.compile(r"[A-Za-z0-9_#]+\Z")
_USER_VAR_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
_IRI_NAME = re.compile(r"[A-Za-z0-9_:/#.\-]+\Z")

_set = object.__setattr__
# position pairs of a triple that a repeated variable can occupy
_TIES = ((0, 1), (0, 2), (1, 2))


class _Value:
    """Immutable once constructed: the hash is cached, so nothing may change."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Term(_Value):
    """An IRI or a variable; two terms are equal iff kind and name are."""

    __slots__ = ("kind", "name", "is_var", "is_iri", "_text", "_hash")

    def __init__(self, kind: str, name: str):
        if kind == "var":
            if not _VAR_NAME.match(name):
                raise ValueError(f"bad variable name: {name!r}")
            text = "?" + name
        elif kind == "iri":
            if not _IRI_NAME.match(name) or name.startswith("?"):
                raise ValueError(f"bad IRI: {name!r}")
            text = name
        else:
            raise ValueError(f"bad term kind: {kind!r}")
        _set(self, "kind", kind)
        _set(self, "name", name)
        _set(self, "is_var", kind == "var")
        _set(self, "is_iri", kind == "iri")
        # IRIs never start with "?", so the text alone tells terms apart
        _set(self, "_text", text)
        _set(self, "_hash", hash(text))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Term:
            return NotImplemented
        return self._text == other._text

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Term, (self.kind, self.name)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Term({self._text!r})"


def var(name: str) -> Term:
    return Term("var", name)


def iri(name: str) -> Term:
    return Term("iri", name)


def parse_term(token: str, *, line: int | None = None) -> Term:
    """Parse a single term token as found in graph and mapping files."""
    if token.startswith("?"):
        name = token[1:]
        if not _VAR_NAME.match(name):
            raise ParseError(f"bad variable token {token!r}", line=line)
        return Term("var", name)
    if not _IRI_NAME.match(token):
        raise ParseError(f"bad IRI token {token!r}", line=line)
    return Term("iri", token)


class Triple(_Value):
    """A triple pattern; ground when it holds no variable."""

    __slots__ = ("s", "p", "o", "terms", "_hash", "_vars")

    def __init__(self, s: Term, p: Term, o: Term):
        _set(self, "s", s)
        _set(self, "p", p)
        _set(self, "o", o)
        _set(self, "terms", (s, p, o))
        _set(self, "_hash", hash((s._hash, p._hash, o._hash)))
        _set(self, "_vars", None)

    def vars(self) -> frozenset[Term]:
        found = self._vars
        if found is None:
            found = frozenset(t for t in self.terms if t.is_var)
            _set(self, "_vars", found)
        return found

    def is_ground(self) -> bool:
        return not self.vars()

    def __eq__(self, other) -> bool:
        if other.__class__ is not Triple:
            return NotImplemented
        return self._hash == other._hash and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Triple, self.terms

    def __str__(self) -> str:
        return f"{self.s._text} {self.p._text} {self.o._text}"

    def __repr__(self) -> str:
        return f"Triple({str(self)!r})"


def substitute(triple: Triple, sub: dict[Term, Term]) -> Triple:
    """Replace variables of `triple` that occur in `sub`; others stay put."""
    s, p, o = triple.terms
    return Triple(
        sub.get(s, s) if s.is_var else s,
        sub.get(p, p) if p.is_var else p,
        sub.get(o, o) if o.is_var else o,
    )


class TGraph(_Value):
    """A finite set of triple patterns in canonical (serialized) order.

    Besides the sorted tuple it holds the same triples as a frozenset
    (`triple_set`); its variables, IRIs and (position, IRI) index are
    computed on first use and kept.
    """

    __slots__ = ("triples", "triple_set", "_vars", "_iris", "_index")

    def __init__(self, triples: tuple[Triple, ...] = ()):
        members = frozenset(triples)
        _set(self, "triples", tuple(sorted(members, key=str)))
        _set(self, "triple_set", members)
        _set(self, "_vars", None)
        _set(self, "_iris", None)
        _set(self, "_index", None)

    def vars(self) -> frozenset[Term]:
        found = self._vars
        if found is None:
            found = frozenset(x for t in self.triples for x in t.terms if x.is_var)
            _set(self, "_vars", found)
        return found

    def iris(self) -> frozenset[Term]:
        found = self._iris
        if found is None:
            found = frozenset(x for t in self.triples for x in t.terms if x.is_iri)
            _set(self, "_iris", found)
        return found

    def is_ground(self) -> bool:
        return not self.vars()

    def matching(self, t: Triple) -> tuple[Triple, ...]:
        """The triples u that t maps onto by substituting its variables: u
        holds t's IRIs at their positions, and a variable repeated in t
        meets equal terms in u.  Variables of this t-graph count as
        constants, so the answer is the same for ground and non-ground
        targets."""
        index = self._index
        if index is None:
            lists: dict[tuple[int, Term], list[Triple]] = {}
            for u in self.triples:
                for key in enumerate(u.terms):
                    if key[1].is_iri:
                        lists.setdefault(key, []).append(u)
            index = {key: tuple(us) for key, us in lists.items()}
            _set(self, "_index", index)
        terms = t.terms
        found, via = self.triples, None
        for key in enumerate(terms):
            if key[1].is_iri:
                hits = index.get(key, ())
                if len(hits) < len(found):
                    found, via = hits, key
        # the shortest list holds one IRI already; filter by the others
        for i, x in enumerate(terms):
            if x.is_iri and (i, x) != via:
                found = [u for u in found if u.terms[i] == x]
        for i, j in _TIES:
            if terms[i].is_var and terms[i] == terms[j]:
                found = [u for u in found if u.terms[i] == u.terms[j]]
        return tuple(found)

    def __iter__(self):
        return iter(self.triples)

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self.triple_set

    def __eq__(self, other) -> bool:
        if other.__class__ is not TGraph:
            return NotImplemented
        return self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def __reduce__(self):
        return TGraph, (self.triples,)

    def __or__(self, other: "TGraph") -> "TGraph":
        return TGraph(self.triples + other.triples)

    def __str__(self) -> str:
        return "{" + " ; ".join(str(t) for t in self.triples) + "}"

    def __repr__(self) -> str:
        return f"TGraph(triples={self.triples!r})"


@dataclass(frozen=True)
class Mapping:
    """A partial function from variables to IRIs.

    Lookup outside the domain yields None, never a default value.  The
    bindings are kept sorted by variable name and, for lookups, as a dict.
    """

    bindings: tuple[tuple[Term, Term], ...] = ()

    def __post_init__(self):
        seen: dict[Term, Term] = {}
        for k, v in self.bindings:
            if not (k.is_var and v.is_iri):
                raise ValueError(f"binding must map a variable to an IRI: {k} -> {v}")
            if seen.setdefault(k, v) != v:
                raise ValueError(f"conflicting bindings for {k}")
        object.__setattr__(
            self, "bindings", tuple(sorted(seen.items(), key=lambda kv: kv[0].name))
        )
        object.__setattr__(self, "_map", seen)
        object.__setattr__(self, "domain", frozenset(seen))

    @classmethod
    def of(cls, items) -> "Mapping":
        if isinstance(items, dict):
            items = items.items()
        return cls(tuple(items))

    def get(self, v: Term) -> Term | None:
        return self._map.get(v)

    def items(self):
        return iter(self.bindings)

    def __len__(self) -> int:
        return len(self.bindings)

    def compatible(self, other: "Mapping") -> bool:
        mine = self._map
        for k, v in other.bindings:
            w = mine.get(k)
            if w is not None and w != v:
                return False
        return True

    def merge(self, other: "Mapping") -> "Mapping":
        if not self.compatible(other):
            raise IncompatibleMappings(f"cannot merge {self} with {other}")
        return Mapping(self.bindings + other.bindings)

    def apply(self, t: Triple) -> Triple:
        missing = t.vars() - self.domain
        if missing:
            worst = min(missing, key=str)
            raise UnboundVariable(f"variable {worst} is not bound")
        return substitute(t, self._map)

    def restrict(self, keep) -> "Mapping":
        keep = frozenset(keep)
        return Mapping(tuple((k, v) for k, v in self.bindings if k in keep))

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.bindings)
        return "{" + inner + "}"


def compatible(m1: Mapping, m2: Mapping) -> bool:
    return m1.compatible(m2)


def merge(m1: Mapping, m2: Mapping) -> Mapping:
    return m1.merge(m2)


# ---------------------------------------------------------------------------
# file formats


def _data_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield no, line


def parse_graph(text: str, *, ground: bool = False) -> TGraph:
    """Parse a t-graph file; with ground=True reject variables (RDF graphs)."""
    triples = []
    known: dict[str, Term] = {}  # one Term per distinct token
    for no, line in _data_lines(text):
        if line.endswith("."):
            line = line[:-1].rstrip()
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"expected three terms, got {len(tokens)}", line=no)
        found = []
        for tok in tokens:
            term = known.get(tok)
            if term is None:
                term = known[tok] = parse_term(tok, line=no)
            found.append(term)
        t = Triple(*found)
        if ground and not t.is_ground():
            worst = min(t.vars(), key=str)
            raise NonGroundGraph(f"variable {worst} in an RDF graph", line=no)
        triples.append(t)
    return TGraph(tuple(triples))


def serialize_graph(g: TGraph) -> str:
    return "".join(f"{t} .\n" for t in g)


def parse_mapping(text: str) -> Mapping:
    bindings: list[tuple[Term, Term]] = []
    seen: set[Term] = set()
    for no, line in _data_lines(text):
        if "=" not in line:
            raise ParseError("expected '?var = iri'", line=no)
        left, _, right = line.partition("=")
        v = parse_term(left.strip(), line=no)
        if not v.is_var:
            raise ParseError(f"left-hand side must be a variable, got {v}", line=no)
        value = parse_term(right.strip(), line=no)
        if not value.is_iri:
            raise ParseError(f"right-hand side must be an IRI, got {value}", line=no)
        if v in seen:
            raise DuplicateBinding(f"duplicate binding for {v}", line=no)
        seen.add(v)
        bindings.append((v, value))
    return Mapping(tuple(bindings))


def serialize_mapping(m: Mapping) -> str:
    return "".join(f"{k} = {v}\n" for k, v in m.items())


def parse_var_list(text: str) -> frozenset[Term]:
    """Parse a distinguished-variable list: one ``?var`` per line."""
    out = set()
    for no, line in _data_lines(text):
        v = parse_term(line, line=no)
        if not v.is_var:
            raise ParseError(f"expected a variable, got {v}", line=no)
        out.add(v)
    return frozenset(out)
