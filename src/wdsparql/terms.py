"""Terms, triple patterns, t-graphs and solution mappings.

A term is either an IRI (an opaque token) or a variable written ``?name``.
A t-graph is a finite set of triple patterns; a t-graph without variables
is an RDF graph.  A mapping is a partial function from variables to IRIs
(the SPARQL solution object).

Every layer above keys sets and dicts by terms and triples, so a lookup
must be cheap.  A term is one object per text (``?name`` for a variable,
``name`` for an IRI): `Term(kind, name)` returns the live term of that text
when there is one, from a table of weak references.  The table also
holds each term it makes until the next release: the end of the next
full collection of the cyclic garbage collector, or sooner, once the
terms made since the last release outnumber both a floor of a few
thousand and the terms live just after it.  A term the program drops
thus leaves the table when it is dropped or, when it was made since the
last release, at the next one; made again before then, it is the same
object, so a recurring vocabulary is made once, and the table holds at
most about twice the terms the program holds, plus the floor.  Two
terms are equal iff they are the same object, and compare and hash by
identity, in C; the name is checked only when a term is made.  Each kind
has its own subclass of `Term`, which holds `kind`, `is_var` and
`is_iri` as class attributes, so making a term writes only its name and
its text.  A triple is the tuple of its three terms, so it is built,
hashed and compared as a tuple, in C, and equals the plain tuple
of the same terms.  A t-graph keeps its triples three ways: the canonical
sorted tuple, a frozenset for membership (`triple_set`), and indexes, each
built on first use (`TGraph.by_mask`): for a set of bound positions, the
pairs of other positions a repeated variable ties and, when the lookup
names one, a predicate, the triples (with that predicate) under their
terms at those positions, IRIs and variables alike.  One rule,
`access_path`, turns a triple with some positions bound into the (mask,
ties, predicate) of its lookup: a triple with an IRI predicate reads that
predicate's index, so it meets no triple of another predicate, and a
triple with every position bound is a membership test in
`TGraph.members` (`triple_set` once every triple exists, else the set of
the predicate's triples), so no index keys whole triples.  A graph
parsed from a file makes a predicate's `Triple`s only when a query first
reads that predicate: it keeps its distinct rows grouped by predicate,
and assembles the sorted tuple and the frozenset from the triples so
made only when either is first read.  A graph whose triples all exist
groups them by predicate in one pass when an index of a predicate is
first built.  Every look into a graph follows that rule: the
homomorphism search compiles its lookups by it and reads an index
directly, with keys of terms and no `Triple` built, and
`TGraph.matching` answers "which triples can this pattern triple map
onto, with these values for some of its variables", for the evaluator
and the pebble game.  A t-graph keeps, per search plan run on it, the
plan's lookups bound to its indexes (`TGraph.readers`), so each index
and set is fetched once per target and plan.  A mapping keeps a dict
beside its sorted bindings; the evaluator's compiled record checks read
it and put each pattern triple under it as a plain tuple of terms, made
by a `key_getter` over a tuple of values, which a membership test looks
up in `triple_set` as it is.

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

import gc
import re
import weakref
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby
from operator import attrgetter, itemgetter

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
_NAME = {"var": _VAR_NAME, "iri": _IRI_NAME}

_set = object.__setattr__
_name = attrgetter("name")
_text = attrgetter("_text")
_first = itemgetter(0)
# position pairs of a triple that a repeated variable can occupy
_TIES = ((0, 1), (0, 2), (1, 2))


def _no_key(_items) -> tuple:
    return ()


def access_path(t: tuple[Term, Term, Term], known) -> tuple[tuple[int, ...], tuple, Term | None]:
    """The `TGraph.by_mask` lookup of the triple t with the variables in
    `known` bound, as (mask, ties, p).  A position is bound when it holds
    an IRI or a known variable.  When t's predicate is an IRI, p is that
    predicate and the mask leaves position 1 out, unless every position is
    bound: such a lookup is a membership test in `TGraph.members(p)`.  The
    ties are the pairs of free positions where t repeats a variable."""
    bound = tuple(i for i, x in enumerate(t) if x.is_iri or x in known)
    p = t[1] if t[1].is_iri else None
    mask = bound if p is None or len(bound) == 3 else tuple(i for i in bound if i != 1)
    ties = tuple((i, j) for i, j in _TIES if i not in bound and t[i].is_var and t[i] == t[j])
    return mask, ties, p


def key_getter(positions: tuple[int, ...]):
    """A function from a sequence to the key of `TGraph.by_mask` made of its
    items at `positions`: the bare item for one position, a tuple for
    more, () for none."""
    return itemgetter(*positions) if positions else _no_key


def tuple_getter(keys: tuple):
    """A function from a dict or a sequence to the tuple of its items at
    `keys`, in that order, a tuple however many keys there are."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        (key,) = keys
        return lambda items: (items[key],)
    return _no_key


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
# the terms made since the last release, each held until the next one
_recent: list[Term] = []
# the least number of terms a release lets `_recent` hold
_RECENT_FLOOR = 4096
# a term made while `_recent` holds this many releases them
_recent_cap = _RECENT_FLOOR


def _release() -> None:
    """Let go of the terms made since the last release; those nothing else
    holds die now and leave `_live`.  The next release comes once more
    terms are made than are live after this one and than the floor."""
    global _recent_cap
    _recent.clear()
    _recent_cap = max(_RECENT_FLOOR, len(_live))


def _after_collection(phase: str, info: dict) -> None:
    # one hook on the collector: release at the end of each full collection
    if phase == "stop" and info["generation"] == 2:
        _release()


gc.callbacks.append(_after_collection)


def _forget(ref: _Ref) -> None:
    # a term made after this one died may hold the text by now
    if _live.get(ref.text) is ref:
        del _live[ref.text]


class Term(_Value):
    """An IRI or a variable, one object per text: `Term(kind, name)` checks
    the name and returns the live term of that kind and name when there is
    one, so two terms are equal iff they are the same object, and hash by
    identity.  A term is an instance of its kind's class (`_Var` or
    `_Iri`), which holds `kind`, `is_var` and `is_iri`, so a new term
    writes only its name and its text."""

    __slots__ = ("name", "_text", "__weakref__")

    def __new__(cls, kind: str, name: str):
        pattern = _NAME.get(kind)
        if pattern is None:
            raise ValueError(f"bad term kind: {kind!r}")
        if not pattern.match(name):
            raise ValueError(f"bad {'variable name' if kind == 'var' else 'IRI'}: {name!r}")
        return _interned(kind, name)

    def __reduce__(self):
        return Term, (self.kind, self.name)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Term({self._text!r})"


class _Var(Term):
    __slots__ = ()
    kind = "var"
    is_var = True
    is_iri = False


class _Iri(Term):
    __slots__ = ()
    kind = "iri"
    is_var = False
    is_iri = True


def _interned(kind: str, name: str) -> Term:
    """The live term of that kind and name, or a new one entered in the
    table; the one place terms are made.  A new term is held in `_recent`
    until the next release (`_release`: at the end of the next full
    collection, or when a term is made while `_recent` is full), so if it
    is dropped and made again before then, it is the same object.  The
    name is not checked: `Term` checks every name it is given, and the
    library calls this directly only with names valid by construction
    (generated variables and frozen IRIs, built from names already
    checked and integers)."""
    # IRIs never start with "?", so the text alone tells terms apart
    if kind == "var":
        text = "?" + name
        cls = _Var
    else:
        text = name
        cls = _Iri
    ref = _live.get(text)
    if ref is not None:
        term = ref()
        if term is not None:
            return term
    term = object.__new__(cls)
    _set(term, "name", name)
    _set(term, "_text", text)
    ref = _live[text] = _Ref(term, _forget)
    ref.text = text
    if len(_recent) >= _recent_cap:
        _release()
    _recent.append(term)
    return term


def var(name: str) -> Term:
    return Term("var", name)


def iri(name: str) -> Term:
    return Term("iri", name)


def parse_term(token: str, *, line: int | None = None) -> Term:
    """Parse a single term token as found in graph and mapping files."""
    term = _token_term(token)
    if term is None:
        kind = "variable" if token.startswith("?") else "IRI"
        raise ParseError(f"bad {kind} token {token!r}", line=line)
    return term


def _triple_text(t: tuple[Term, Term, Term]) -> str:
    """The text `s p o` of a triple: its `str`, and the sort key of a
    t-graph's canonical order, called directly so that no `str` method
    lookup runs per triple."""
    return f"{t[0]._text} {t[1]._text} {t[2]._text}"


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

    __str__ = _triple_text

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


def _keyed(triples, mask: tuple[int, ...], ties: tuple[tuple[int, int], ...]) -> dict:
    """`triples` under their terms at the positions of `mask` (the key
    `key_getter(mask)` reads), only those holding equal terms at each pair
    of `ties`, each list in the order of `triples`.  With an empty mask
    every kept triple is under the one key ()."""
    if ties:
        triples = [u for u in triples if all(u[i] == u[j] for i, j in ties)]
    if not mask:
        return {(): list(triples)} if triples else {}
    found: dict = {}
    for key, u in zip(map(key_getter(mask), triples), triples):
        hits = found.get(key)
        if hits is None:
            found[key] = [u]
        else:
            hits.append(u)
    return found


class TGraph(_Value):
    """A finite set of triple patterns in canonical (serialized) order.

    It holds the triples as a sorted tuple (`triples`) and as a frozenset
    (`triple_set`); its variables, IRIs, indexes (`by_mask`) and
    per-predicate member sets (`members`) are computed on first use and
    kept, and so are the search plans from it (`plans`) and the lookups
    of each plan run on it, bound to its indexes (`readers`).  A graph from
    `parse_graph` starts instead from its distinct rows of tokens grouped
    by predicate (see `_LazyTGraph`), so a query that names a few
    predicates makes their triples alone.  Length, iteration, equality,
    hash, pickling and `serialize_graph` all read `triples`.
    """

    __slots__ = (
        "triples", "triple_set", "_vars", "_iris", "_index", "_plans", "_readers", "_parts", "_rows"
    )

    def __init__(self, triples: Iterable[Triple] = ()):
        # sorted in the order given, so the sort merges the sorted runs a
        # caller passes (a gadget's templates, the halves of `|`); equal
        # triples have one text, so a repeat sits beside its first copy
        ordered = sorted(triples, key=_triple_text)
        members = frozenset(ordered)
        if len(members) != len(ordered):
            ordered = [t for t, _ in groupby(ordered)]
        _set(self, "triples", tuple(ordered))
        _set(self, "triple_set", members)
        _set(self, "_vars", None)
        _set(self, "_iris", None)
        _set(self, "_index", {})
        _set(self, "_plans", None)
        _set(self, "_readers", None)
        _set(self, "_parts", None)
        _set(self, "_rows", None)

    @classmethod
    def _ground(cls, triples) -> "TGraph":
        """The t-graph of `triples`, which the caller knows to hold no
        variable, made with its variables known (none), as `parse_graph`
        makes a ground graph: `is_ground` then reads no triple."""
        g = cls(triples)
        _set(g, "_vars", frozenset())
        return g

    def _predicate(self, p: Term) -> list[Triple]:
        """The triples with predicate p, in canonical order.  Once every
        triple is made they are p's list in the index by predicate
        (`by_mask((1,))`, one pass over `triples`); a parsed graph not yet
        assembled makes p's triples from its rows on the first call for p,
        which drops those rows, and the whole row table once every
        predicate is made."""
        parts = self._parts
        if parts is None:
            return self.by_mask((1,)).get(p, [])
        found = parts.get(p)
        if found is not None:
            return found
        rows = self._rows
        raw = None if rows is None else rows[1].pop(p, None)
        if raw is None:  # no triple holds p
            return []
        if not rows[1]:
            _set(self, "_rows", None)
        get = rows[0].__getitem__
        # " ".join of a row is its triple's text, the canonical order's key
        found = parts[p] = [_triple((get(s), p, get(o))) for s, _, o in sorted(raw, key=" ".join)]
        return found

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

    def by_mask(
        self, mask: tuple[int, ...], ties: tuple[tuple[int, int], ...] = (), p: Term | None = None
    ) -> dict:
        """The triples keyed by their terms at the positions of `mask`, a
        sorted tuple of positions: the bare term for one position, a tuple
        of terms for more, () for none.  With `ties`, pairs of positions
        outside the mask, only the triples holding equal terms at each pair
        are kept, as a repeated variable needs.  With a predicate `p`, only
        the triples holding p at position 1, which a lookup's mask then
        leaves out (`access_path`).  Each list keeps the order of
        `triples`.  Built on first use of the (mask, ties, p) key and kept, so a lookup with some positions bound
        reads one list, whatever the bound terms are (IRIs, or variables of
        this t-graph, constants here).  A predicate's index is built from
        that predicate's triples alone (`_predicate`)."""
        found = self._index.get((mask, ties, p))
        if found is None:
            found = _keyed(self.triples if p is None else self._predicate(p), mask, ties)
            self._index[mask, ties, p] = found
        return found

    def members(self, p: Term | None = None) -> frozenset:
        """A set for membership tests of triples with predicate p (any
        triple when p is None): `triple_set` once every triple is made,
        else the set of p's triples (`_predicate`), kept, so a parsed graph
        answers them without making its other predicates' triples."""
        if p is None or self._parts is None:
            return self.triple_set
        found = self._index.get(p)  # a bare predicate keys its member set
        if found is None:
            found = self._index[p] = frozenset(self._predicate(p))
        return found

    def plans(self) -> dict:
        """The search plans from this t-graph by pinned set, kept by `hom`."""
        found = self._plans
        if found is None:
            found = {}
            _set(self, "_plans", found)
        return found

    def readers(self) -> dict:
        """Per search plan run on this t-graph, the list of its lookups
        bound to this t-graph's indexes and sets, filled by `hom._solve` on
        the first search of the plan here.  A plan holds no t-graph, so the
        table puts none in a reference cycle."""
        found = self._readers
        if found is None:
            found = {}
            _set(self, "_readers", found)
        return found

    def matching(self, t: Triple, values: dict | None = None) -> tuple[Triple, ...]:
        """The triples u that t maps onto once its variables in `values`
        take their values, in the order of `triples`.  A position of t is
        bound when it holds an IRI or a variable with a value, and u holds
        that term there; a variable of t without a value matches anything,
        whatever the variables of this t-graph are called, and a repeated
        one meets equal terms in u.  One read of the index `access_path`
        names, that of t's predicate when it is an IRI, or, with every
        position bound, one membership test (`members`).  With no
        variable of t but one left free, the terms at its position come
        each once and in `str` order: every index list keeps the canonical
        order, the triples sorted by their text, and no term's text holds
        a space."""
        mask, ties, p = access_path(t, values or ())
        terms = tuple(map(values.get, t, t)) if values else t
        if len(mask) == 3:
            return (_triple(terms),) if terms in self.members(p) else ()
        return tuple(self.by_mask(mask, ties, p).get(key_getter(mask)(terms), ()))

    def __iter__(self):
        return iter(self.triples)

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self.triple_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, TGraph):
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


class _LazyTGraph(TGraph):
    """A t-graph parsed from a file, until its `triples` or `triple_set`
    is first read.  It starts from its distinct rows of tokens grouped by
    predicate (`_rows`) and makes a predicate's `Triple`s, in canonical
    order, when an index of that predicate is first built
    (`TGraph._predicate`).  The first read of either attribute makes the
    rest, assembles both from those same objects, and turns the graph
    into a plain `TGraph`: only this class defines `__getattr__`, which
    would slow every attribute read of a t-graph."""

    __slots__ = ()

    def __init__(self, known: dict[str, Term], table: dict[Term, list], variables: frozenset):
        # `known` maps each token to its term, and `table` each predicate
        # to the distinct rows of tokens that hold it
        _set(self, "_vars", variables)
        _set(self, "_iris", frozenset(known.values()) - variables)
        _set(self, "_index", {})
        _set(self, "_plans", None)
        _set(self, "_readers", None)
        _set(self, "_parts", {})
        _set(self, "_rows", (known, table) if table else None)

    def __getattr__(self, name: str):
        # called only for an attribute not set, of which these two are
        # the ones this class leaves for later
        if name not in ("triples", "triple_set"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if self._rows is not None:
            for p in list(self._rows[1]):
                self._predicate(p)
        # each part is sorted by its triples' text, so with the parts in
        # the order of their predicates a stable sort by subject alone
        # gives the canonical order
        parts = self._parts
        made = list(chain.from_iterable(map(parts.__getitem__, sorted(parts, key=_text))))
        subjects = list(map(_text, map(_first, made)))
        triples = tuple(map(made.__getitem__, sorted(range(len(made)), key=subjects.__getitem__)))
        _set(self, "_parts", None)
        _set(self, "triples", triples)
        _set(self, "triple_set", frozenset(triples))
        _set(self, "__class__", TGraph)
        return getattr(self, name)


@dataclass(frozen=True)
class Mapping:
    """A partial function from variables to IRIs.

    Lookup outside the domain yields None, never a default value.  The
    bindings are kept sorted by variable name and, for lookups, as a dict
    (`_map`), which the package's searches read as it is and never change.
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
        names = sorted(seen, key=_name)
        _set(self, "bindings", tuple(zip(names, map(seen.__getitem__, names))))
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

    def __str__(self) -> str:
        inner = ", ".join([f"{k._text}={v._text}" for k, v in self.bindings])
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# file formats


def _data_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield no, line


def _row(tokens: list[str]) -> tuple[str, ...] | None:
    """The terms of one split line of a graph file: None for a blank line
    or a comment, else its tokens with the line's one optional trailing "."
    dropped (three of them on a good line)."""
    if not tokens or tokens[0][0] == "#":
        return None
    last = tokens[-1]
    if last[-1] == ".":
        tokens[-1:] = [last[:-1]] if len(last) > 1 else []
    return tuple(tokens)


def _token_term(token: str) -> Term | None:
    """The term a token names, or None for a bad token (the empty one too)."""
    if token[:1] == "?":
        return _interned("var", token[1:]) if _VAR_NAME.match(token[1:]) else None
    return _interned("iri", token) if _IRI_NAME.match(token) else None


def parse_graph(text: str, *, ground: bool = False) -> TGraph:
    """Parse a t-graph file; with ground=True reject variables (RDF graphs).

    One pass splits every line into its row of terms, and each distinct
    token is checked, and made a term, once.  A bad line (not three terms,
    a bad token, or a variable in a ground graph) raises for the first one
    in file order, each line checked in that order.  The distinct rows are
    kept grouped by predicate, and no `Triple` is made here: the t-graph
    makes a predicate's triples when a query first reads that predicate
    (see `TGraph`), and knows its variables and IRIs already, so
    `is_ground` reads no triple."""
    rows = [
        (t[0], t[1], t[2]) if len(t) == 4 and t[3] == "." and t[0][0] != "#" else _row(t)
        for t in map(str.split, text.splitlines())
    ]
    data = list(filter(None, rows))  # a line of just "." is () and fails below
    known = {token: _token_term(token) for token in set(chain.from_iterable(data))}
    variables = frozenset(x for x in known.values() if x is not None and x.is_var)
    if (
        () in rows
        or not set(map(len, data)) <= {3}
        or None in known.values()
        or (ground and variables)
    ):
        _raise_first_bad_row(rows, known, ground)
    table: dict[str, list] = {}
    for row in set(data):
        found = table.get(row[1])
        if found is None:
            table[row[1]] = [row]
        else:
            found.append(row)
    return _LazyTGraph(known, {known[p]: rows for p, rows in table.items()}, variables)


def _raise_first_bad_row(rows, known: dict, ground: bool) -> None:
    for no, row in enumerate(rows, start=1):
        if row is None:
            continue
        if len(row) != 3:
            raise ParseError(f"expected three terms, got {len(row)}", line=no)
        for token in row:
            if known[token] is None:
                parse_term(token, line=no)
        found = [known[token] for token in row if known[token].is_var]
        if ground and found:
            worst = min(found, key=str)
            raise NonGroundGraph(f"variable {worst} in an RDF graph", line=no)


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
