"""Terms, triple patterns, t-graphs and solution mappings.

A term is either an IRI (an opaque token) or a variable written ``?name``.
A t-graph is a finite set of triple patterns; a t-graph without variables
is an RDF graph.  A mapping is a partial function from variables to IRIs
(the SPARQL solution object).

Every layer above keys sets and dicts by terms and triples, so a lookup
must be cheap.  A term is one object per text (``?name`` for a variable,
``name`` for an IRI): `Term(kind, name)` returns the live term of that text
when there is one, from a table of weak references that forgets a term
once the program drops it.  So two terms are equal iff they are the same
object, and compare and hash by identity, in C; the name is checked only
when a term is made.  A triple is the tuple of its three terms, so it is
built, hashed and compared as a tuple, in C, and equals the plain tuple
of the same terms.  A t-graph keeps its triples three ways: the canonical
sorted tuple, a frozenset for membership (`triple_set`), and indexes keyed
per mask: for a set of bound positions (and the pairs of other positions
a repeated variable ties), the triples under their terms at those
positions, IRIs and variables alike, each index built on first use of its
mask (`TGraph.by_mask`).  Every other look into a graph is one read of
such an index: the homomorphism search's compiled lookups read it
directly, with keys of terms and no `Triple` built, and
`TGraph.matching` answers "which triples can this pattern triple map
onto, with these values for some of its variables" from it, for the
evaluator and the pebble game; `TGraph.values_at` reads one position of
those matches.  A mapping keeps a dict beside its sorted bindings;
`Mapping.images_in` puts a triple under it as a plain tuple of terms,
which a membership test looks up in `triple_set` as it is.

File formats
------------
Graph files: one triple per line, three whitespace-separated terms with an
optional trailing ``.``; blank lines and lines starting with ``#`` are
ignored.  Mapping files: one ``?var = iri`` binding per line.

Variable names use the alphabet ``[A-Za-z0-9_]``; the extra character ``#``
is reserved for internally generated fresh variables and is rejected by the
pattern parser, which keeps generated names collision-free.  An IRI may
not start with ``#``, which would make its line of a graph file a comment.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from .errors import (
    DuplicateBinding,
    IncompatibleMappings,
    NonGroundGraph,
    ParseError,
    UnboundVariable,
)

_VAR_NAME = re.compile(r"[A-Za-z0-9_#]+\Z")
_USER_VAR_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
_IRI_NAME = re.compile(r"(?!#)[A-Za-z0-9_:/#.\-]+\Z")

_set = object.__setattr__
# position pairs of a triple that a repeated variable can occupy
_TIES = ((0, 1), (0, 2), (1, 2))


def _no_key(_items) -> tuple:
    return ()


def ties_of(terms: tuple[Term, Term, Term], bound) -> tuple[tuple[int, int], ...]:
    """The position pairs outside `bound` where `terms` repeats a variable:
    the `ties` of a `TGraph.by_mask` lookup of these terms."""
    return tuple(
        (i, j) for i, j in _TIES if i not in bound and terms[i].is_var and terms[i] == terms[j]
    )


def key_getter(positions: tuple[int, ...]):
    """A function from a sequence to the key of `TGraph.by_mask` made of its
    items at `positions`: the bare item for one position, a tuple for
    more, () for none."""
    return itemgetter(*positions) if positions else _no_key


class _Value:
    """Immutable once constructed: terms are shared and hashes are cached,
    so nothing may change."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Ref(weakref.ref):
    """A weak reference to a live term that carries the term's text."""

    __slots__ = ("text",)


# text -> a weak reference to the one live term with that text
_live: dict[str, _Ref] = {}


def _forget(ref: _Ref) -> None:
    # a term made after this one died may hold the text by now
    if _live.get(ref.text) is ref:
        del _live[ref.text]


class Term(_Value):
    """An IRI or a variable, one object per text: `Term(kind, name)` returns
    the live term of that kind and name when there is one, so two terms are
    equal iff they are the same object, and hash by identity."""

    __slots__ = ("kind", "name", "is_var", "is_iri", "_text", "__weakref__")

    def __new__(cls, kind: str, name: str):
        # IRIs never start with "?", so the text alone tells terms apart
        text = "?" + name if kind == "var" else name
        ref = _live.get(text)
        if ref is not None:
            term = ref()
            if term is not None and term.kind == kind:
                return term
        if kind == "var":
            if not _VAR_NAME.match(name):
                raise ValueError(f"bad variable name: {name!r}")
        elif kind == "iri":
            if not _IRI_NAME.match(name):
                raise ValueError(f"bad IRI: {name!r}")
        else:
            raise ValueError(f"bad term kind: {kind!r}")
        term = object.__new__(cls)
        _set(term, "kind", kind)
        _set(term, "name", name)
        _set(term, "is_var", kind == "var")
        _set(term, "is_iri", kind == "iri")
        _set(term, "_text", text)
        ref = _live[text] = _Ref(term, _forget)
        ref.text = text
        return term

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
    is_var = token.startswith("?")
    try:
        return Term("var", token[1:]) if is_var else Term("iri", token)
    except ValueError:
        kind = "variable" if is_var else "IRI"
        raise ParseError(f"bad {kind} token {token!r}", line=line) from None


class Triple(tuple):
    """A triple pattern, the tuple (s, p, o) of its terms; ground when it
    holds no variable.  It is that tuple: it hashes, compares and unpacks
    as a tuple, in C, and a plain tuple of the same terms is equal."""

    __slots__ = ()

    def __new__(cls, s: Term, p: Term, o: Term):
        return tuple.__new__(cls, (s, p, o))

    s = property(itemgetter(0))
    p = property(itemgetter(1))
    o = property(itemgetter(2))

    def vars(self) -> frozenset[Term]:
        return frozenset(t for t in self if t.is_var)

    def is_ground(self) -> bool:
        return not self.vars()

    def __reduce__(self):
        return Triple, tuple(self)

    def __str__(self) -> str:
        s, p, o = self
        return f"{s._text} {p._text} {o._text}"

    def __repr__(self) -> str:
        return f"Triple({str(self)!r})"


# a Triple of a tuple of three terms, without a Python-level call
_triple = partial(tuple.__new__, Triple)


def substitute(triple: Triple, sub: dict[Term, Term]) -> Triple:
    """Replace variables of `triple` that occur in `sub`; others stay put."""
    s, p, o = triple
    return _triple((
        sub.get(s, s) if s.is_var else s,
        sub.get(p, p) if p.is_var else p,
        sub.get(o, o) if o.is_var else o,
    ))


class TGraph(_Value):
    """A finite set of triple patterns in canonical (serialized) order.

    Besides the sorted tuple it holds the same triples as a frozenset
    (`triple_set`); its variables, IRIs and per-mask indexes
    (`by_mask`) are computed on first use and kept.
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
            found = frozenset(x for t in self.triples for x in t if x.is_var)
            _set(self, "_vars", found)
        return found

    def iris(self) -> frozenset[Term]:
        found = self._iris
        if found is None:
            found = frozenset(x for t in self.triples for x in t if x.is_iri)
            _set(self, "_iris", found)
        return found

    def is_ground(self) -> bool:
        return not self.vars()

    def by_mask(self, mask: tuple[int, ...], ties: tuple[tuple[int, int], ...] = ()) -> dict:
        """The triples keyed by their terms at the positions of `mask`, a
        sorted tuple of positions: the bare term for one position, a tuple
        of terms for more, () for none.  With `ties`, pairs of positions
        outside the mask, only the triples holding equal terms at each pair
        are kept, as a repeated variable needs.  Each list keeps the order
        of `triples`.  Built on first use of the (mask, ties) pair and kept,
        so a lookup with some positions bound reads one list, whatever the
        bound terms are (IRIs, or variables of this t-graph, constants
        here)."""
        index = self._index
        if index is None:
            index = {}
            _set(self, "_index", index)
        found = index.get((mask, ties))
        if found is None:
            found = index[mask, ties] = {}
            get = key_getter(mask)
            for u in self.triples:
                if ties and not all(u[i] == u[j] for i, j in ties):
                    continue
                key = get(u)
                hits = found.get(key)
                if hits is None:
                    found[key] = [u]
                else:
                    hits.append(u)
        return found

    def matching(self, t: Triple, values: dict | None = None) -> tuple[Triple, ...]:
        """The triples u that t maps onto once its variables in `values`
        take their values, in the order of `triples`.  A position of t is
        bound when it holds an IRI or a variable with a value, and u holds
        that term there; a variable of t without a value matches anything,
        whatever the variables of this t-graph are called, and a repeated
        one meets equal terms in u.  One lookup in `by_mask`."""
        mask = []
        key = []
        for i, x in enumerate(t):
            if x.is_var:
                x = values.get(x) if values else None
                if x is None:
                    continue
            mask.append(i)
            key.append(x)
        index = self.by_mask(tuple(mask), ties_of(t, mask))
        return tuple(index.get(key[0] if len(key) == 1 else tuple(key), ()))

    def values_at(self, t: Triple, pos: int, values: dict | None = None) -> list[Term]:
        """The terms at position `pos` over `matching(t, values)`.  With no
        other variable of t left free, they come each once and in `str`
        order, as the triples are sorted by their text and no term's text
        holds a space."""
        return [u[pos] for u in self.matching(t, values)]

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


def _binding_name(kv: tuple[Term, Term]) -> str:
    return kv[0].name


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
        self._fill(seen)

    def _fill(self, seen: dict[Term, Term]) -> None:
        _set(self, "bindings", tuple(sorted(seen.items(), key=_binding_name)))
        _set(self, "_map", seen)
        _set(self, "domain", frozenset(seen))

    @classmethod
    def of(cls, items) -> "Mapping":
        if isinstance(items, dict):
            items = items.items()
        return cls(tuple(items))

    @classmethod
    def _valid(cls, items) -> "Mapping":
        """The mapping of bindings known valid (variables to IRIs, as a
        homomorphism into a ground graph or a merge of compatible mappings
        gives them), as a dict or as pairs, where a repeated variable takes
        one value; built without the checks of `__post_init__`."""
        m = object.__new__(cls)
        m._fill(dict(items))
        return m

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

    def images_in(self, triples, graph: TGraph) -> bool:
        """Whether the graph holds each triple with the values of its
        variables in the domain in place, a plain tuple of terms looked up
        in `triple_set` as it is (equal to the `Triple` it would build)."""
        get, full = self._map.get, graph.triple_set
        for t in triples:
            if tuple(map(get, t, t)) not in full:
                return False
        return True

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.bindings)
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# file formats


def _data_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield no, line


def parse_graph(text: str, *, ground: bool = False) -> TGraph:
    """Parse a t-graph file; with ground=True reject variables (RDF graphs).
    A line of three tokens all seen before builds its triple at once; any
    other line reads every token first, so a bad one is a `ParseError`."""
    triples = []
    # a token seen before costs one dict read here; a call through
    # parse_term and Term's table for each token measured slower (answers
    # throughput 14% lower, its setup_s 28% higher)
    known: dict[str, Term] = {}
    get = known.get
    for no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        last = tokens[-1]
        if last[-1] == ".":  # the line's one optional trailing "."
            tokens[-1:] = [last[:-1]] if len(last) > 1 else []
        if len(tokens) != 3:
            raise ParseError(f"expected three terms, got {len(tokens)}", line=no)
        s, p, o = tokens
        s, p, o = get(s), get(p), get(o)
        if s is not None and p is not None and o is not None:
            triples.append(_triple((s, p, o)))
            continue
        t = _triple(tuple(get(tok) or known.setdefault(tok, parse_term(tok, line=no)) for tok in tokens))
        # a ground parse stops at the first variable, so `known` holds none
        # and a line of known tokens is ground
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
