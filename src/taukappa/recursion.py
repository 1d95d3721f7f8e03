"""Mixed tau/kappa correlators by double-factorial recursion on the pivot.

The engine evaluates (2d_1+1)!! <kappa(b) prod tau_{d_j}>_g as three sums:
a pair merge of the pivot with another tau insertion, a genus-lowering
term producing tau_r tau_s at genus g-1, and a sum over ordered stable
splits of the remaining insertions, all weighted by the recursively
defined constants alpha_L and multi-index binomials.  With b = 0 this is
the classical pure-psi recursion (base cases <tau_0^3>_0 = 1 and
<tau_1>_1 = 1/24); any correlator violating the dimension constraint
sum(d) + |b| = 3g - 3 + n or stability contributes zero inside every sum.

A correlator whose smallest insertion is tau_0, or tau_1 beside other
insertions X, skips the sums and takes one step of the generalized string
or dilaton equation instead (s = 0 or 1):
  <tau_s kappa(b) X>_g = T_s - sum_{0 != L <= b} (-1)^||L|| binom(b, L)
                               <tau_{|L|+s} kappa(b-L) X>_g,
  T_0 = sum_j <kappa(b) X with d_j - 1>_g,  T_1 = (2g-2+|X|) <kappa(b) X>_g.
Each term keeps g and lowers the dimension or ||b||, so only
<tau_d kappa(b)>_g with d >= 1 and correlators with every d_j >= 2 run
the three sums.

The three sums are one sum over the kappa parts L + R = b, accumulated
exactly in integers.  Once the common factor 1/2 is pulled out, every term
is alpha_L times an integer coefficient: multiplicities, the binomials
binom(b, L) and binom(R, e), whose product is the split multinomial,
products of odd double factorials, and the pair-merge ratio
(2(|L|+d_1+v)-1)!!/(2v-1)!!.  alpha_L's numerator joins the coefficient,
once per L.  Each term adds coefficient times numerator to one bucket map,
keyed by alpha_L's denominator times the denominator of the table value
(of both values, for a split term); one lcm pass builds the correlator's
Fraction over 2 (2d_1+1)!!.  The string/dilaton step has integer
coefficients and sums into a bucket map the same way.

The reduction oracle trades one kappa index at a time for a psi power at
a new point (inclusion-exclusion over sub-multi-indices) and ends in the
pure-psi recursion, so it never runs the three sums with kappa classes.
`RecursionEngine.value` serves every correlator: a pure kappa volume
<kappa(b)>_g missing from the table comes from the oracle.  The oracle
is also the independent check of the three sums on mixed correlators;
the string and dilaton checks in `identities` read it and the engine's
n-point function, never the step above with kappa classes.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import zlib
from fractions import Fraction

from .core import (EMPTY, Memo, MultiIndex, bucket_sum, double_factorial,
                   enumerate_sub_multiindices, multiindex_binomial,
                   multiset_splits, runs)
from .npoint import NPointEngine

__all__ = [
    "EngineDisagreement", "CacheError", "CorrelatorTable", "alpha_constant",
    "gamma_constant", "inserted_sum", "RecursionEngine",
]


class EngineDisagreement(Exception):
    """Two engines produced different values for the same correlator."""


class CacheError(ValueError):
    """A loaded cache record whose value text is malformed."""


def corr_key(g: int, d, b: MultiIndex) -> tuple:
    """Canonical identifier (g, d sorted descending, b) of one bracket
    <prod tau_d kappa(b)>_g."""
    return (g, tuple(sorted(d, reverse=True)), b)


def _d_field(d) -> str:
    return ",".join(map(str, d))


def _b_field(b: MultiIndex) -> str:
    return ",".join(f"{i}:{m}" for i, m in b.entries)


def key_text(key: tuple) -> str:
    """The `g|d|b` text of a canonical key, as a cache line spells it."""
    g, d, b = key
    return f"{g}|{_d_field(d)}|{_b_field(b)}"


def _parse_key(text: str) -> tuple:
    g, d, b = text.split("|")
    return (int(g), tuple(map(int, d.split(","))) if d else (),
            MultiIndex.parse(b))


# a record's value as the line check admits it, its denominator non-zero
_VALUE = re.compile(r"-?\d+/0*[1-9]\d*")


def _parse_value(text: str) -> Fraction:
    """The value of a record's `num/den` text; CacheError if `_VALUE`
    refuses it, as a segment's records are indexed unchecked."""
    if not _VALUE.fullmatch(text):
        raise CacheError(f"malformed value in cache record: {text!r}")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den))


# one cache line: blank, a comment or a g|d|b|num/den record, with
# whitespace around it; neither "." nor [^\S\n] crosses a line's end.  Only
# a record takes trailing whitespace, so the two blank runs cannot trade
# characters and a bad line fails in linear time
_LINES = re.compile(r"^[^\S\n]*(?:(\d+)\|([0-9,]*)\|([0-9:,]*)\|(-?\d+/(\d+))"
                    r"[^\S\n]*|#.*)?$", re.M)

# the header line of a segment that `append_new` wrote: the count, byte
# length and CRC-32 of the record lines after it; a comment to the line check.
# Counts are bounded so that int() never meets its limit on digits
_SEGMENT = re.compile(
    r"#seg v1 records=(\d{1,18}) bytes=(\d{1,18}) crc32=([0-9a-f]{8})\n")


def _has_line_over(text: str, start: int, end: int, limit: int) -> bool:
    """Whether a line of text[start:end], which starts after a newline and
    ends with one, is longer than limit.  Such a line holds one of the
    points limit apart from start, so only the lines through them are
    measured: a few finds for a segment of short lines."""
    return any(text.find("\n", c, end) - text.rfind("\n", start - 1, c) - 1
               > limit for c in range(start, end, limit))


class CorrelatorTable:
    """Write-once map from correlator keys to exact values.

    Every entry carries a provenance tag naming the engine that produced
    it.  Engines insert through `record`, and `merge` records every entry
    of another table: recording a key twice with the same value is a no-op
    (the first tag wins); recording a different value raises
    EngineDisagreement.  Persists to a line-oriented text cache, one
    `g|d,...|i:b,...|num/den` record per line.  New keys that did not come
    from a file are listed, so `append_new` writes them without rescanning
    the table (load the cache first: a key computed before is written again).

    `append_new` writes one segment in a single write: a header line
    `#seg v1 records=N bytes=L crc32=H`, then N canonical record lines
    whose byte length is L and whose `zlib.crc32` is H (8 hex digits).
    To any reader the header is a comment.

    The table has two parts that never share a key.  `parsed` maps
    canonical keys to Fractions.  `load` files each record in an index
    from its canonical `g|d|b` text (`key_text`) to its `num/den` text.
    A segment whose header matches its lines, none of whose keys is in
    the table yet, is indexed as it stands; every other line is checked
    and canonicalized (files of older versions, hand edits, torn or
    damaged segments), but a torn segment's last line, cut short of its
    newline, is refused.  The first `lookup` of a key moves its record
    into `parsed`, tagged "cache", so a loaded value still meets the
    write-once check, and raises CacheError if its value text is not one
    the line check admits.  `values` and `provenance` move every record
    left in the index first.
    """

    def __init__(self):
        self.parsed: dict[tuple, Fraction] = {}
        self._tags: dict[tuple, str] = {}
        self._index: dict[str, str] = {}
        self._unsaved: list[tuple] = []

    def __len__(self):
        return len(self.parsed) + len(self._index)

    @property
    def values(self) -> dict[tuple, Fraction]:
        self._read_all()
        return self.parsed

    @property
    def provenance(self) -> dict[tuple, str]:
        self._read_all()
        return self._tags

    def get(self, g: int, d, b: MultiIndex = EMPTY):
        return self.lookup(corr_key(g, d, b))

    def lookup(self, key: tuple) -> Fraction | None:
        """The value under a canonical key (g, d, b), or None.  A loaded
        record moves into `parsed` on its first lookup, tagged "cache"."""
        hit = self.parsed.get(key)
        if hit is not None or not self._index:
            return hit
        text = self._index.pop(key_text(key), None)
        if text is None:
            return None
        value = self.parsed[key] = _parse_value(text)
        self._tags[key] = "cache"
        return value

    def _read_all(self):
        for text, value in self._index.items():
            key = _parse_key(text)
            self.parsed[key] = _parse_value(value)
            self._tags[key] = "cache"
        self._index.clear()

    def record(self, g: int, d, b: MultiIndex, value: Fraction, engine: str) -> Fraction:
        return self._put(corr_key(g, d, b), value, engine)

    def merge(self, other: CorrelatorTable) -> None:
        """Record every entry of `other` here under its own tag."""
        for key, tag in other.provenance.items():
            self._put(key, other.parsed[key], tag)

    def _put(self, key: tuple, value: Fraction, engine: str) -> Fraction:
        if self._index:
            self.lookup(key)
        size = len(self.parsed)
        old = self.parsed.setdefault(key, value)
        if len(self.parsed) > size:
            self._tags[key] = engine
            if engine != "cache":
                self._unsaved.append(key)
        elif old != value:
            raise EngineDisagreement(
                f"{key}: {self._tags[key]} computed {old}, "
                f"{engine} computed {value}")
        return value

    # -- persistence -------------------------------------------------------

    @staticmethod
    def _format_line(key: tuple, value: Fraction) -> str:
        return f"{key_text(key)}|{value.numerator}/{value.denominator}"

    def load(self, path: str) -> int:
        """Index the records of a cache file; returns the number read.

        A segment whose header matches its record lines (count, byte
        length and CRC-32) was written by `append_new`, so its lines are
        canonical and are indexed as they stand, unless one of its keys is
        already in the table or one of its lines is longer than int()'s
        digit limit.  Every other line is checked, and a record with an
        integer past that limit is refused with ValueError.  When a header
        counts more bytes than the file holds, a write was cut short: a
        last line without its newline is refused with ValueError, as it
        may be a record cut inside its value."""
        if not os.path.exists(path):
            return 0
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("ascii")
        index = self._index
        # a line for a key already parsed goes through the write-once record()
        filed = {key_text(key) for key in self.parsed}
        digits = sys.get_int_max_str_digits() or len(data)
        count = pos = 0
        torn = False
        # segments and the text between them in file order, so the first
        # fault in the file is the one reported
        for m in _SEGMENT.finditer(text):
            at, start = m.span()
            end = start + int(m[2])
            if at < pos or (at and text[at - 1] != "\n"):
                continue
            if end > len(text):
                torn = True     # a write cut short, or a damaged header
                continue
            lines = text[start:end].split("\n")
            if (lines.pop() or len(lines) != int(m[1]) or int(m[3], 16)
                    != zlib.crc32(memoryview(data)[start:end])):
                continue
            if pos != at:
                count += self._check_lines(text[pos:at], filed)
            segment = dict(line.rpartition("|")[::2] for line in lines)
            keys = segment.keys()
            # a line longer than int()'s digit limit may hold an integer no
            # read could parse; the line check refuses such a record
            if (len(segment) == len(lines) and keys.isdisjoint(filed)
                    and keys.isdisjoint(index.keys())
                    and not _has_line_over(text, start, end, digits)):
                index.update(segment)
                count += len(lines)
            else:
                count += self._check_lines(text[start:end], filed)
            pos = end
        rest = text[pos:]
        if torn and rest and not rest.endswith(("\n", "\r")):
            # the last line of a segment that runs past the end of the file
            # may be a record cut inside its value, such as 29/57 of 29/5760
            cut = max(rest.rfind("\n"), rest.rfind("\r")) + 1
            self._check_lines(rest[:cut], filed)
            raise ValueError(f"cache line cut short: {rest[cut:].strip()!r}")
        return count + self._check_lines(rest, filed)

    def _check_lines(self, text: str, filed: set) -> int:
        """Check every line of `text` and index its records, recording
        those under a key in `filed`; returns the number of records."""
        if "\r" in text:
            # universal newlines, as a file read in text mode has them
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        # canonical field texts, each worked out once per distinct spelling
        genus = Memo(lambda t: str(int(t)))
        descending = Memo(lambda t: _d_field(
            sorted(map(int, filter(None, t.split(","))), reverse=True)))
        kappa = Memo(lambda t: _b_field(MultiIndex.parse(t)))
        index = self._index
        # int() parses no integer longer than this; a record holding one is
        # refused here
        digits = sys.get_int_max_str_digits() or len(text)
        count = pos = 0
        # lines end at "\n" alone, as iterating the file does; a form feed
        # inside a line does not end it
        for m in _LINES.finditer(text):
            start, end = m.span()
            if start != pos:
                break           # the line at pos does not match
            pos = end + 1
            g, d, b, value, den = m.groups()
            if g is None:
                continue        # blank or comment
            if not den.strip("0"):
                raise ValueError(
                    f"zero denominator in cache line: {m.group().strip()!r}")
            if len(value) > digits and max(
                    len(value.lstrip("-")) - len(den) - 1, len(den)) > digits:
                raise ValueError(f"integer of more than {digits} digits in "
                                 f"cache record {g}|{d}|{b}")
            # single digits in descending order are canonical as they stand,
            # which spares most lines converting and sorting d
            parts = d.split(",")
            if (2 * len(parts) - 1 != len(d)
                    or parts != sorted(parts, reverse=True)):
                d = descending[d]
            key = f"{genus[g]}|{d}|{kappa[b]}"
            count += 1
            if filed and key in filed:
                self.record(*_parse_key(key), _parse_value(value), "cache")
                continue
            old = index.setdefault(key, value)
            # two spellings of one value, such as 1/2 and 2/4, agree
            if old != value and _parse_value(old) != _parse_value(value):
                raise EngineDisagreement(
                    f"{_parse_key(key)}: cache computed {_parse_value(old)}, "
                    f"cache computed {_parse_value(value)}")
        if pos <= len(text):
            line = text[pos:].split("\n", 1)[0].strip()
            raise ValueError(f"malformed cache line: {line!r}")
        return count

    def append_new(self, path: str) -> int:
        """Append entries not yet persisted as one segment, in one write;
        returns the number written."""
        fresh = sorted(self._unsaved, key=lambda k: (k[0], k[1], k[2].entries))
        if not fresh:
            return 0
        body = "".join(self._format_line(key, self.parsed[key]) + "\n"
                       for key in fresh).encode("ascii")
        segment = (f"#seg v1 records={len(fresh)} bytes={len(body)} "
                   f"crc32={zlib.crc32(body):08x}\n").encode("ascii") + body
        with open(path, "a+b", buffering=0) as fh:
            # a last line left without its newline gets one first
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    segment = b"\n" + segment
            if fh.write(segment) != len(segment):
                raise OSError(f"short write to {path}")
        self._unsaved.clear()
        return len(fresh)


# -- tautological constants -------------------------------------------------

def gamma_constant(L: MultiIndex) -> Fraction:
    """gamma_L = (-1)^||L|| / (L! (2|L|+1)!!), the s-weights of the
    Virasoro operators."""
    return Fraction((-1) ** L.size,
                    L.factorial() * double_factorial(2 * L.weight + 1))


def alpha_constant(L: MultiIndex) -> Fraction:
    """alpha_L = L! (gamma^-1)(L) for the inverse gamma^-1 of gamma under
    multi-index convolution: alpha_0 = 1 and
    alpha_b = -b! sum_{L+L'=b, L'!=0} alpha_L gamma_L' / L!."""
    return _ALPHA_CACHE[L]


# alpha_L depends on L alone, so one memo serves every engine; the fill
# recurses through alpha_constant
_ALPHA_CACHE = Memo(lambda L: -L.factorial() * sum(
    alpha_constant(left) / left.factorial() * gamma_constant(right)
    for left, right in enumerate_sub_multiindices(L) if right))
_ALPHA_CACHE[EMPTY] = Fraction(1)


def inserted_sum(read, g: int, d, b: MultiIndex, s: int) -> Fraction:
    """sum_{L <= b} (-1)^||L|| binom(b, L) <tau_{|L|+s} kappa(b-L) prod tau_d>_g,
    each value from `read(g, d, b)`: one step of the reduction (s = a + 1
    for the traded kappa_a), the side of the string (s = 0) or dilaton
    (s = 1) equation that carries the new insertion, and the left side of
    the tau_M recursion (s = M)."""
    total = Fraction(0)
    for left, right in enumerate_sub_multiindices(b):
        total += ((-1) ** left.size * multiindex_binomial(b, left)
                  * read(g, d + (left.weight + s,), right))
    return total


_ZERO = Fraction(0)


class RecursionEngine:
    """Memoized evaluator for mixed correlators, backed by a CorrelatorTable."""

    def __init__(self):
        self.table = CorrelatorTable()
        self._oracle_cache: dict[tuple, Fraction] = {}

    @functools.cached_property
    def npoint(self) -> NPointEngine:
        """The n-point engine that checks this one, built on first use."""
        return NPointEngine()

    # -- main recursion ----------------------------------------------------

    def value(self, g: int, d, b: MultiIndex = EMPTY) -> Fraction:
        """<kappa(b) prod tau_d>_g, d empty or not, with the zero conventions
        applied.  A table record is served as it stands, and a pure kappa
        volume missing from it comes from `reduction_oracle`."""
        d = tuple(sorted(d, reverse=True))
        n = len(d)
        if g < 0 or (d and d[-1] < 0):
            return _ZERO
        if sum(d) + b.weight != 3 * g - 3 + n:
            return _ZERO
        if 2 * g - 2 + n <= 0:
            return _ZERO
        # base cases go through record() first, so a wrong cached value
        # for them raises instead of being served
        if g == 0 and d == (0, 0, 0):   # b is empty here by dimension
            return self.table.record(g, d, b, Fraction(1), "wk")
        if g == 1 and d == (1,) and not b:
            return self.table.record(g, d, b, Fraction(1, 24), "wk")
        # d is sorted already, so (g, d, b) is the corr_key; misses still
        # record() under it
        hit = self.table.lookup((g, d, b))
        if hit is not None:
            return hit
        if not d:
            return self.reduction_oracle(g, d, b)
        if d[-1] == 0 or (d[-1] == 1 and n >= 2):
            val = self._pre_reduce(g, d, b)
        else:
            val = self._three_sums(g, d, b)
        tag = "wk" if not b else "mixed"
        return self.table.record(g, d, b, val, tag)

    def _pre_reduce(self, g: int, d: tuple, b: MultiIndex) -> Fraction:
        # one string (s = 0) or dilaton (s = 1) step, see the module docstring
        s, rest = d[-1], d[:-1]
        if s:
            terms = [(2 * g - 2 + len(rest), rest, b)]
        else:
            terms = []
            for v in dict.fromkeys(rest):   # distinct d_j, each once
                if v:
                    i = rest.index(v)
                    terms.append((rest.count(v),
                                  rest[:i] + (v - 1,) + rest[i + 1:], b))
        # minus (-1)^||L|| binom(b, L) <tau_{|L|+s} kappa(b-L) X>_g, L != 0
        for left, right in enumerate_sub_multiindices(b):
            if left:
                sign = 1 if left.size % 2 else -1
                terms.append((sign * multiindex_binomial(b, left),
                              rest + (left.weight + s,), right))
        acc = {}
        for coef, newd, newb in terms:
            val = self.value(g, newd, newb)
            if val:
                den = val.denominator
                acc[den] = acc.get(den, 0) + coef * val.numerator
        return bucket_sum(acc)

    def _three_sums(self, g: int, d: tuple, b: MultiIndex) -> Fraction:
        d1 = d[0]
        rest = d[1:]
        value = self.value
        # {denominator: integer numerator} over every term of every L; with
        # 1/2 pulled out each coefficient is an integer times alpha_L, whose
        # numerator joins the coefficient and whose denominator the key
        acc = {}
        # half[k] = (2k-1)!! and odd[k] = (2k+1)!! for every k the terms use
        half = [1]
        for k in range(1, b.weight + d1 + max(rest, default=0) + 2):
            half.append(half[-1] * (2 * k - 1))
        odd = half[1:]

        # each distinct value v of the remaining insertions, its multiplicity
        # and the other insertions once the pair merge takes one v
        merges = [(v, mult, rest[:i] + rest[i + 1:])
                  for v, mult in runs(rest) for i in (rest.index(v),)]
        # the insertion splits of the split term depend on rest alone, each
        # with its part of the first factor's dimension
        splits = [(part, other, ways, sum(part) - len(part) + 2)
                  for part, other, ways in multiset_splits(rest)]

        for left, right in enumerate_sub_multiindices(b):
            w = left.weight
            a_l = alpha_constant(left)
            coef_l = multiindex_binomial(b, left) * a_l.numerator
            a_den = a_l.denominator

            # pair merge: pivot absorbs one other insertion
            for v, mult, others in merges:
                # top >= 2: the three sums run only with every d_j >= 2
                top = w + d1 + v
                val = value(g, others + (top - 1,), right)
                if val:
                    # (2 top - 1)!!/(2v - 1)!! is an integer since top >= v
                    coef = 2 * mult * coef_l * (half[top] // half[v])
                    den = val.denominator * a_den
                    acc[den] = acc.get(den, 0) + coef * val.numerator

            m = w + d1 - 2
            if m < 0:
                continue
            # genus lowering
            if g >= 1:
                for r in range(m + 1):
                    s = m - r
                    val = value(g - 1, rest + (r, s), right)
                    if val:
                        coef = coef_l * odd[r] * odd[s]
                        den = val.denominator * a_den
                        acc[den] = acc.get(den, 0) + coef * val.numerator

            # stable splits of kappa(b - L) and of the insertions
            for e, f in enumerate_sub_multiindices(right):
                tri = coef_l * multiindex_binomial(right, e)
                for part, other, ways, shift in splits:
                    # genus of the first factor is fixed by its dimension
                    base = shift + e.weight
                    for r in range(-base % 3, m + 1, 3):
                        gp = (base + r) // 3
                        if gp < 0 or gp > g:
                            continue
                        s = m - r
                        v1 = value(gp, part + (r,), e)
                        if not v1:
                            continue
                        v2 = value(g - gp, other + (s,), f)
                        if not v2:
                            continue
                        coef = tri * ways * odd[r] * odd[s]
                        den = v1.denominator * v2.denominator * a_den
                        acc[den] = (acc.get(den, 0)
                                    + coef * v1.numerator * v2.numerator)

        return bucket_sum(acc, 2 * odd[d1])

    def reduction_oracle(self, g: int, d, b: MultiIndex) -> Fraction:
        """Trade kappa indices for psi powers one at a time.

        <kappa_a kappa(b0) prod tau_d>_{g,n}
          = sum_{S <= b0} (-1)^||S|| binom(b0, S)
            <tau_{a+1+|S|} kappa(b0-S) prod tau_d>_{g,n+1},
        `inserted_sum` at s = a + 1, down to the pure-psi recursion once b
        is exhausted.  `value` calls it for a pure kappa volume missing
        from the table; it is also the independent check of the three sums
        on mixed correlators, and reads no table record of its own keys.
        """
        d = tuple(sorted(d, reverse=True))
        if g < 0 or (d and d[-1] < 0):
            return Fraction(0)
        if sum(d) + b.weight != 3 * g - 3 + len(d):
            return Fraction(0)
        if not b:
            return self.value(g, d, EMPTY)
        key = (g, d, b)
        hit = self._oracle_cache.get(key)
        if hit is not None:
            return hit
        a = b.entries[-1][0]            # largest kappa index
        acc = inserted_sum(self.reduction_oracle, g, d,
                           b - MultiIndex({a: 1}), a + 1)
        self._oracle_cache[key] = acc
        # cross-record: write-once semantics force agreement with the
        # recursion engine wherever both visit the same key
        self.table.record(g, d, b, acc, "oracle")
        return acc
