"""Exact scalar arithmetic for quantum link invariants.

Two value types, both immutable:

* :class:`LaurentQT` -- sparse Laurent polynomials in ``q`` and ``t`` with
  arbitrary-precision integer coefficients and integer exponents, each
  below 2**31 in size.  The one place a fraction could enter is the torus
  twist ``tau**(n/m)``, and it never does: every label (beta, gamma) in the
  image of the m-th Adams operation has legs with empty m-core, so each leg
  is tiled by m-ribbons, whose m contents are consecutive; hence m divides
  both the size and kappa (twice the content sum).
* :class:`RationalQT` -- quotients whose denominator is an integer times a
  product of brackets ``q**k - q**-k``, which is where every denominator in
  this engine comes from.  Each value is kept in one canonical factored form
  over the centred cyclotomic factors ``phi_d`` (``{k} = prod_{d|k} phi_d``),
  so equality, hashing and serialisation agree.  Cancellation splits a
  numerator once into rows in ``x = q**2``, one per t-exponent and
  q-parity, and divides every row by ``Phi_d(x)``, for every tested
  ``phi_d`` and every power, in that one pass; a division is kept only
  when no row leaves a remainder.  A product with a scalar (one numerator
  term, no ``phi_d``) only cancels integers, and a product with brackets
  (``bracket_scaled``) only moves exponents.  The same rows certify
  membership in ``ZZ[z**2, t**+-1]``, ``z = q - 1/q``, in one pass
  (``zsquare_decompose``): each row is even in q and a palindrome about q**0.

A term dict maps one int per exponent pair to a nonzero coefficient:
q**e_q * t**e_t is the key ``e_t * _M + e_q`` with ``_M = 2**50 + 2 * 40503``,
so shifting or multiplying a monomial is one integer addition, the keys sort
in (e_t, e_q) order, ``key & 1`` is the parity of e_q and e_t reads back by
one shift.  Every exponent is below 2**31 in size, so a sum of two of them
still reads back uniquely, and each value carries a bound on its exponents
(``_reach``) that products and shifts add up.  A bound of 2**31 or more
makes the result measure its exponents, and an exponent there raises
ArithmeticError, so no two exponent pairs ever share a key.  Keys are built from exponent pairs in
the constructor, ``monomial``, ``from_records`` and ``exponent_key``, and
read back only at the edges: ``sorted_terms``, ``to_records``,
``exponent_box``, the packed layouts (``_box``, ``_packed_basis``) and the
first key of each row in x that ``zsquare_decompose`` certifies.

Every Laurent product runs through one multiply-add loop, ``_multiply_add``
(acc += w * f * g): ``LaurentQT.__mul__`` is one into an empty dict, and
``lmov`` accumulates its log series with it.  Large products are Kronecker
substitutions (``packed_product``): each operand becomes one signed
integer, a q-step per slot of w bits and a t-row per run of slots, with w
wide enough for every product coefficient; one big-integer product then
replaces the loop over term pairs, and the slots are read back in one
pass.  ``_multiply_add`` takes it only above a gate on size and density,
because packing a short or sparse product costs more than the loop, and
``tq_bracket_product`` builds the colored unknot's numerator on one packed
integer, a shift and a subtraction per factor.

The rows are packed the same way, one integer per row with a 64-bit slot per
x-step.  Every sum of values is one lift-and-add kernel (``_combine``):
vectors of leaves w * q**e_q * t**e_t * x_key over the common denominator of
the values.  ``RationalQT.sum`` is one vector of unshifted leaves,
``skein.torus_framed`` one of kink-shifted leaves (``combination_value``) and
the free energy's H_A the vectors of one ``combination_basis``.  The kernel
plans the lcm once, then either packs each value once into the rows of the
whole call, lifts it by one big-integer product with k * P(2**64), P its
missing ``phi_d`` product (``q**-deg P`` only moves slots), and makes each
vector one integer of whole-slot shifts (``_packed_basis``), or lifts each
value as a Laurent polynomial and adds each leaf by key additions
(``_shifted_nums``).  A packed total (``_canonical_packed``) takes its content
as one gcd over the digits and divides each row by ``Phi_d(2**64)`` with
``divmod``; the term dict is read once, at the end.  A nonzero remainder
proves that ``phi_d`` does not divide, but a zero one proves nothing alone, so
a quotient q' is kept only under a certificate:
``||prod Phi||_1 * max|q'_i| < 2**63``, which makes ``prod Phi * q'`` equal
the row digit for digit, because balanced base-2**64 digits are unique.  The
gates are constants measured on the workloads: the kernel packs 4 or more
vectors, and fewer from 64 leaf terms on when their lifts add 2 x-steps per
term on average, if the slot bound stays below 2**62 and the rows take at
most 16 (4 for few vectors) slots per term.  Below a gate the term-dict
route runs.  ``_phi_cancel`` packs every numerator whose coefficients are
below 2**62 in size.

``exact_div`` is the one polynomial division.  It builds each ``phi_d`` as
``{d}`` over the ``phi_e`` of the proper divisors e of d
(``cyclotomic_factor``), finds the factors of a denominator
(``bracket_factors``), and decides every cancellation that the packed rows
cannot: a coefficient of 2**62 or more in size, or a quotient that fails
the certificate, leaves the numerator to one ``exact_div`` by ``phi_d`` at
a time (``_phi_cancel_by_division``).

``q_one_leading`` gives the exact leading term of either type under
``q = exp(h)``, which is how ``q -> 1`` limits are taken.

All operations are pure functions of their inputs and safe to share across
threads.
"""

from __future__ import annotations

from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from math import comb, gcd, lcm
from operator import mul
from sys import byteorder

# -- exponent keys ----------------------------------------------------------------------

# every exponent of a stored term is below this in size
_BOUND = 1 << 31
# q**e_q * t**e_t is the key e_t * _M + e_q, _M = 2**50 + 2 * 40503.  The
# term 2 * 40503 * e_t (40503 is 2**16 over the golden ratio) carries e_t into
# the low bits that pick a dict slot, and keeps _M even, so that key & 1 is
# the parity of e_q.  For |e_q|, |e_t| < 2**32, a sum of two exponents in
# the bound, e_q + 2 * 40503 * e_t + 2**49 lies in [0, 2**50), so the shift
# (key + 2**49) >> 50 reads e_t back; no division is needed.
_SHIFT = 50
_M = (1 << _SHIFT) + 2 * 40503
_HALF = 1 << _SHIFT - 1


def exponent_key(e_q, e_t):
    """The term-dict key of q**e_q * t**e_t; ArithmeticError for an exponent of 2**31 or more in size."""
    if -_BOUND < e_q < _BOUND and -_BOUND < e_t < _BOUND:
        return e_t * _M + e_q
    raise ArithmeticError(f"exponent pair ({e_q}, {e_t}) is beyond the bound 2**31")


def _exponents(key):
    """(e_q, e_t) of a key."""
    e_t = key + _HALF >> _SHIFT
    return key - e_t * _M, e_t


def _split_keys(keys):
    """(t-exponents, q-exponents) of the keys, two lists in key order."""
    ts = [key + _HALF >> _SHIFT for key in keys]
    return ts, [key - et * _M for key, et in zip(keys, ts)]


def _exponent_lists(terms):
    """(t-exponents, q-exponents, coefficients) of a term dict, read back once for a layout."""
    ts, qs = _split_keys(terms)
    return ts, qs, terms.values()


def _measured_reach(terms):
    """The largest exponent of a term dict in size; ArithmeticError at 2**31 or more."""
    if not terms:
        return 0
    ts, qs = _split_keys(terms)
    reach = max(max(ts), -min(ts), max(qs), -min(qs))
    if reach >= _BOUND:
        raise ArithmeticError(f"an exponent of {reach} in size is beyond the bound 2**31")
    return reach


def _reach_of(f):
    """A bound on the exponents of the LaurentQT f in size, measured once when unknown."""
    reach = f._reach
    if reach is None:
        reach = f._reach = _measured_reach(f._terms)
    return reach


class LaurentQT:
    """Sparse integer Laurent polynomial in ``q`` and ``t``.

    Terms map the key of an exponent pair (``exponent_key``: one int,
    ``e_t * _M + e_q``) to a nonzero integer coefficient.  Zero coefficients
    are never stored, so equality is plain term-set equality.  The
    constructor, ``monomial`` and ``from_records`` take exponent pairs; an
    exponent or a coefficient whose type is not ``int`` (a fraction, a float
    or a bool) raises TypeError, and an exponent of 2**31 or more in size
    raises ArithmeticError, as does any product, shift or substitution that
    would reach one.  ``_reach`` bounds every exponent in size, or is None
    until it is first needed.
    """

    __slots__ = ("_terms", "_hash", "_reach")

    def __init__(self, terms=None):
        data = {}
        reach = 0
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (eq, et), c in items:
                if type(eq) is not int or type(et) is not int:
                    raise TypeError(f"exponents must be int, not {eq!r}, {et!r}")
                if type(c) is not int:
                    raise TypeError(f"coefficients must be int, not {c!r}")
                if not c:
                    continue
                key = exponent_key(eq, et)
                reach = max(reach, abs(eq), abs(et))
                c0 = data.get(key)
                if c0 is None:
                    data[key] = c
                else:
                    c = c0 + c
                    if c:
                        data[key] = c
                    else:
                        del data[key]
        self._terms = data
        self._hash = None
        self._reach = reach

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def from_int(cls, n):
        """The constant n; TypeError when n is not an int, a bool included."""
        if type(n) is not int:
            raise TypeError(f"a constant must be int, not {n!r}")
        return cls({(0, 0): n}) if n else _ZERO

    @classmethod
    def monomial(cls, coeff=1, e_q=0, e_t=0):
        return cls({(e_q, e_t): coeff})

    # -- container behaviour -----------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        # a bool compares as the int it equals, as 1 == True does
        if isinstance(other, int):
            other = LaurentQT.from_int(int(other))
        if not isinstance(other, LaurentQT):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            terms = self._terms
            # a constant equals its int, so it hashes as one; the key of q**0 * t**0 is 0
            constant = len(terms) < 2 and not any(terms)
            self._hash = hash(terms.get(0, 0) if constant else frozenset(terms.items()))
        return self._hash

    def sorted_terms(self):
        """((e_q, e_t), coefficient) pairs in key order, which is (e_t, e_q) order: the output order."""
        return [(_exponents(key), c) for key, c in sorted(self._terms.items())]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentQT.from_int(other)
        if not isinstance(other, LaurentQT):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        data = dict(self._terms)
        _add_terms(data, other._terms)
        return _laurent(data, max(_reach_of(self), _reach_of(other)))

    __radd__ = __add__

    def __neg__(self):
        return _laurent({k: -c for k, c in self._terms.items()}, self._reach)

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentQT.from_int(other)
        if not isinstance(other, LaurentQT):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return LaurentQT.from_int(other) - self

    def __mul__(self, other):
        # a bool is no ring element: it falls through to NotImplemented, so Python raises TypeError
        if type(other) is int:
            if not other:
                return _ZERO
            return _laurent({k: c * other for k, c in self._terms.items()}, self._reach)
        if not isinstance(other, LaurentQT):
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        return _laurent(*_multiply_add({}, self, other, 1))

    __rmul__ = __mul__

    def __pow__(self, k):
        if isinstance(k, bool):
            raise TypeError("a bool is not an exponent")
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers of a polynomial")
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def content(self):
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self._terms.values():
            g = gcd(g, abs(c))
            if g == 1:
                return 1
        return g

    def leading(self):
        """(exponent pair, coefficient) of the term with the largest (e_t, e_q)."""
        key = max(self._terms)
        return _exponents(key), self._terms[key]

    def trailing(self):
        """(exponent pair, coefficient) of the term with the smallest (e_t, e_q)."""
        key = min(self._terms)
        return _exponents(key), self._terms[key]

    def exponent_box(self):
        """((min_eq, max_eq), (min_et, max_et)) over the support."""
        ts, qs = _split_keys(self._terms)
        return (min(qs), max(qs)), (min(ts), max(ts))

    # -- substitutions -------------------------------------------------------

    def substitute_power(self, d):
        """q -> q**d, t -> t**d for a positive integer d."""
        if type(d) is not int or d < 1:
            raise ValueError("the substitution power must be a positive integer")
        # d times a key is the key of d times its exponents, inside the bound
        reach = _reach_of(self) * d
        if reach >= _BOUND:
            reach = _measured_reach(self._terms) * d
            if reach >= _BOUND:
                raise ArithmeticError(f"q -> q**{d} takes an exponent of {reach} in size beyond 2**31")
        return _laurent({key * d: c for key, c in self._terms.items()}, reach)

    def mirror(self):
        """q -> 1/q, t -> 1/t."""
        return _laurent({-key: c for key, c in self._terms.items()}, self._reach)

    # -- serialization -------------------------------------------------------

    def to_records(self):
        """JSON form: [e_q, 1, e_t, 1, coeff-as-string] per term.

        The 1s are exponent denominators, kept so that the record format that
        readers of saved documents parse stays fixed.
        """
        return [[eq, 1, et, 1, str(c)] for (eq, et), c in self.sorted_terms()]

    @classmethod
    def from_records(cls, recs):
        """Inverse of to_records; an exponent denominator other than 1 raises ValueError.

        A coefficient is an int or the decimal string of one: a string that
        is not raises ValueError, and any other type TypeError.
        """
        terms = []
        for a, b, n, d, c in recs:
            if b != 1 or d != 1:
                raise ValueError(f"exponent denominator in record {[a, b, n, d, c]} is not 1")
            terms.append(((a, n), int(c) if type(c) is str else c))
        return cls(terms)

    def __repr__(self):
        return f"LaurentQT({format_laurent(self)!r})"

    def __str__(self):
        return format_laurent(self)


def _add_terms(data, terms, w=1):
    """Add w times the term dict terms, w a nonzero int, into the term dict data in place."""
    get = data.get
    # w * c is nonzero, so a zero total means the key was there
    for key, c in terms.items():
        c = c * w + get(key, 0)
        if c:
            data[key] = c
        else:
            del data[key]


def _laurent(data, reach=None):
    """A LaurentQT over a normalised term dict, taken as is.

    ``reach`` bounds its exponents in size, or is None when unknown.  A bound
    of 2**31 or more is replaced by the measured one, which raises
    ArithmeticError beyond it: the keys of a product or shift of values in
    the bound still read back.
    """
    if reach is not None and reach >= _BOUND:
        reach = _measured_reach(data)
    out = LaurentQT.__new__(LaurentQT)
    out._terms = data
    out._hash = None
    out._reach = reach
    return out


def _product_reach(a, b):
    """A bound on the exponents of the product of LaurentQT a and b, which raises at 2**31.

    The extreme exponents of a product are the sums of its factors', so a
    sum of the factors' bounds that reaches 2**31 is settled by their boxes.
    """
    reach = _reach_of(a) + _reach_of(b)
    if reach >= _BOUND:
        (qa, hqa), (ta, hta) = a.exponent_box()
        (qb, hqb), (tb, htb) = b.exponent_box()
        reach = max(-qa - qb, hqa + hqb, -ta - tb, hta + htb)
        if reach >= _BOUND:
            raise ArithmeticError(f"a product has an exponent of {reach} in size, beyond 2**31")
    return reach


_ZERO = LaurentQT()
_ONE = LaurentQT({(0, 0): 1})


# -- the packed product ---------------------------------------------------------------

# the size gate of ``_multiply_add``'s packed route, measured on the products of the benchmark workloads
_PACK_MIN_TERMS = 6
_PACK_MIN_PAIRS = 200

# a signed array typecode for each slot width of a packed value
_SLOT_CODES = {8 * array(code).itemsize: code for code in "hilq"}


def _slot_width(bound):
    """The slot width in bits that holds every integer of absolute value <= bound, or None."""
    bits = bound.bit_length() + 1
    for w in (16, 32, 64):
        if bits <= w:
            return w
    return None


def _bias(w, n):
    """2**(w - 1) in each of n slots of w bits."""
    return int.from_bytes((1 << w - 1).to_bytes(w >> 3, byteorder) * n, byteorder)


def _box(part):
    """(lowest e_q, q-span, lowest e_t, t-span, shared q-parity, shared t-parity) of a part.

    The part is ``_exponent_lists`` of a term dict.
    """
    ts, qs, _ = part
    lo_q, lo_t = min(qs), min(ts)
    return (
        lo_q, max(qs) - lo_q, lo_t, max(ts) - lo_t,
        len({e & 1 for e in qs}) == 1, len({e & 1 for e in ts}) == 1,
    )


def _pack(part, lo_q, hq, lo_t, ht, width, w, n):
    """An ``_exponent_lists`` part as sum c * X**i over n slots of w bits, X = 2**w.

    A term q**e_q * t**e_t sits in slot ((e_q - lo_q) >> hq) + width * ((e_t - lo_t) >> ht).
    The slots hold two's complement digits; flipping the top bit of each
    biases it by 2**(w - 1), and the bias is taken off the packed whole.
    """
    slots = array(_SLOT_CODES[w], bytes(n * (w >> 3)))
    for et, eq, c in zip(*part):
        slots[(eq - lo_q >> hq) + width * (et - lo_t >> ht)] = c
    bias = _bias(w, n)
    return (int.from_bytes(slots, byteorder) ^ bias) - bias


def _unpack(value, lo_q, hq, lo_t, ht, width, w, n):
    """The term dict of a value packed as by ``_pack``, each slot below 2**(w - 1) in size.

    Adding the bias to every slot makes each slot a nonnegative w-bit digit,
    so no slot borrows from the next, and flipping each top bit back reads
    the digits as signed slots in one pass.  Row by row the keys step by
    2**hq and the rows by _M * 2**ht.
    """
    bias = _bias(w, n)
    slots = array(_SLOT_CODES[w])
    slots.frombytes(((value + bias) ^ bias).to_bytes(n * (w >> 3), byteorder))
    step, row_step = 1 << hq, _M << ht
    lo = lo_t * _M + lo_q
    rows = range(lo, lo + n // width * row_step, row_step)
    keys = chain.from_iterable(range(base, base + width * step, step) for base in rows)
    return dict(zip(compress(keys, slots), compress(slots, slots)))


def packed_product(a, b):
    """The term dict of the product of two nonempty term dicts by one big-integer product.

    Kronecker substitution: q and t are replaced by powers of X = 2**w, so
    each q-step is one w-bit slot and each t-row is a run of slots as wide as
    the product's q-span.  A stride is halved when each operand's exponents
    share a parity.  No product coefficient exceeds
    min(sum|a| * max|b|, max|a| * sum|b|) in size, and w is that bound's
    length plus a sign bit, rounded up to 16, 32 or 64.  Returns None when the
    bound is wider than 64 bits, and when the product is too sparse to pay
    for packing and reading its dense slots: fewer term pairs than 1.5 times
    the terms and slots.  The size gate is ``_multiply_add``'s.
    """
    la, lb = len(a), len(b)
    pairs = la * lb
    part_a, part_b = _exponent_lists(a), _exponent_lists(b)
    qa, sqa, ta, sta, pqa, pta = _box(part_a)
    qb, sqb, tb, stb, pqb, ptb = _box(part_b)
    hq, ht = int(pqa and pqb), int(pta and ptb)
    width = (sqa + sqb >> hq) + 1
    n = width * ((sta + stb >> ht) + 1)
    if 2 * pairs < 3 * (la + lb + n):
        return None
    abs_a, abs_b = [abs(c) for c in a.values()], [abs(c) for c in b.values()]
    w = _slot_width(min(sum(abs_a) * max(abs_b), max(abs_a) * sum(abs_b)))
    if w is None:
        return None
    na = (sqa >> hq) + 1 + width * (sta >> ht)
    nb = (sqb >> hq) + 1 + width * (stb >> ht)
    value = _pack(part_a, qa, hq, ta, ht, width, w, na) * _pack(part_b, qb, hq, tb, ht, width, w, nb)
    return _unpack(value, qa + qb, hq, ta + tb, ht, width, w, n)


def _multiply_add(acc, f, g, w):
    """acc += w * f * g for LaurentQT f and g, a nonzero int w and a term dict acc.

    The one Laurent product loop: ``LaurentQT.__mul__`` is this into an
    empty dict.  A zero total is deleted as it forms.  From 6 terms in the
    shorter of f and g and 200 term pairs on, a product dense enough for
    ``packed_product`` is formed whole; it becomes acc itself when acc is
    empty and w = 1, and is added by ``_add_terms`` otherwise.  Any other
    product runs the shorter of f and g outside.  Returns acc, which is
    updated in place unless it was empty, and a bound on the exponents of
    f * g (``_product_reach``).
    """
    reach = _product_reach(f, g)
    f, g = f._terms, g._terms
    if len(f) > len(g):
        f, g = g, f
    if len(f) >= _PACK_MIN_TERMS and len(f) * len(g) >= _PACK_MIN_PAIRS:
        fg = packed_product(f, g)
        if fg is not None:
            if acc or w != 1:
                _add_terms(acc, fg, w)
                return acc, reach
            return fg, reach
    g = g.items()
    get = acc.get
    # x * y is nonzero, so a zero total means the key was there
    for k1, x in f.items():
        x *= w
        for k2, y in g:
            key = k1 + k2
            c = x * y + get(key, 0)
            if c:
                acc[key] = c
            else:
                del acc[key]
    return acc, reach


def _format_power(sym, e):
    if e == 0:
        return ""
    if e == 1:
        return sym
    return f"{sym}^{e}"


def format_laurent(f):
    """Human-readable form with terms sorted by (e_t, e_q)."""
    if not f:
        return "0"
    parts = []
    for (eq, et), c in f.sorted_terms():
        mono = "*".join(s for s in (_format_power("q", eq), _format_power("t", et)) if s)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# -- distinguished elements ---------------------------------------------------


def t_power(e):
    return LaurentQT({(0, e): 1})


def q_bracket(k):
    """q**k - q**-k."""
    if k == 0:
        return _ZERO
    return LaurentQT({(k, 0): 1, (-k, 0): -1})


def t_bracket(k):
    """t**k - t**-k."""
    if k == 0:
        return _ZERO
    return LaurentQT({(0, k): 1, (0, -k): -1})


def q_brace(p):
    """(q**p - q**-p)/(q - q**-1) as a Laurent polynomial."""
    return LaurentQT({(p - 1 - 2 * j, 0): 1 for j in range(p)})


def tq_bracket_product(powers):
    """prod over (a, e) in ``powers`` of [a]**e, with [a] = t*q**a - t**-1*q**-a and e >= 0.

    [a] = t**-1 * q**-|a| * (T * Q**max(a, 0) - Q**max(-a, 0)) with T = t**2
    and Q = q**2, so the product is a monomial times a polynomial in Q and T,
    packed as in ``packed_product``: each factor is one shift and one
    subtraction of the packed integer.  The coefficients of a product of E
    factors sum to at most 2**E in size, so up to 62 factors fit 64-bit
    slots; more are multiplied as Laurent polynomials.
    """
    powers = [(a, e) for a, e in powers if e]
    if any(e < 0 for _, e in powers):
        raise ValueError("only nonnegative powers of t*q**a - t**-1*q**-a")
    count = sum(e for _, e in powers)
    span = sum(abs(a) * e for a, e in powers)
    # q**span * t**count and its mirror are terms of the product
    if max(span, count) >= _BOUND:
        raise ArithmeticError(f"the product has an exponent of {max(span, count)} in size, beyond 2**31")
    w = _slot_width(1 << count)
    if w is None:
        out = _ONE
        for a, e in powers:
            out = out * LaurentQT({(a, 1): 1, (-a, -1): -1}) ** e
        return out
    width = span + 1
    value = 1
    for a, e in powers:
        high, low = w * (width + max(a, 0)), w * max(-a, 0)
        for _ in range(e):
            value = (value << high) - (value << low)
    return _laurent(_unpack(value, -span, 1, -count, 1, width, w, width * (count + 1)), max(span, count))


_Z2_CACHE = [_ONE]
_Z2_COLUMNS = [[[1]]]  # the table of columns of ``zsquare_decompose``, which replaces it whole


def z_square_power(g):
    """(q - q**-1)**(2g), cached."""
    while len(_Z2_CACHE) <= g:
        _Z2_CACHE.append(_Z2_CACHE[-1] * (q_bracket(1) * q_bracket(1)))
    return _Z2_CACHE[g]


# -- division and membership --------------------------------------------------


def exact_div(a, b):
    """Exact quotient a/b in the Laurent ring, or None when b does not divide a.

    Monomials are units here, so the only obstructions are coefficient
    divisibility and support geometry; the candidate quotient support is
    confined to the exponent box derived from the factor boxes, which also
    bounds the division loop.  The division runs in key order, largest
    (e_t, e_q) first; any monomial order gives the same exact quotient.
    """
    if not isinstance(a, LaurentQT) or not isinstance(b, LaurentQT):
        raise TypeError("exact_div expects LaurentQT operands")
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return _ZERO
    (aq, AQ), (at_, AT) = a.exponent_box()
    (bq, BQ), (bt, BT) = b.exponent_box()
    lo_q, hi_q = aq - bq, AQ - BQ
    lo_t, hi_t = at_ - bt, AT - BT
    if lo_q > hi_q or lo_t > hi_t:
        return None
    lead = max(b._terms)
    lead_c = b._terms[lead]
    b_terms = list(b._terms.items())
    rem = dict(a._terms)
    # the remainder's largest key, through a max-heap of negated keys; entries
    # whose key has since cancelled out of rem are skipped when popped.  Every
    # key of rem stays in a's box, and every quotient key in the box above.
    heap = [-key for key in rem]
    heapify(heap)
    quo = {}
    while rem:
        key = -heappop(heap)
        c = rem.get(key)
        if c is None:
            continue
        wkey = key - lead
        wet = wkey + _HALF >> _SHIFT
        if not (lo_q <= wkey - wet * _M <= hi_q and lo_t <= wet <= hi_t):
            return None
        if c % lead_c:
            return None
        w = c // lead_c
        quo[wkey] = w
        for bkey, bc in b_terms:
            k2 = bkey + wkey
            r = rem.get(k2)
            if r is None:
                rem[k2] = -w * bc
                heappush(heap, -k2)
            else:
                r -= w * bc
                if r:
                    rem[k2] = r
                else:
                    del rem[k2]
    return _laurent(quo, max(-lo_q, hi_q, -lo_t, hi_t))


def zsquare_decompose(f):
    """Write f = sum c[g, Q] * (q - 1/q)**(2g) * t**Q with integer c and g >= 0.

    Returns the table (Q ascending, then g descending, no zero entry), or
    None when a row of f in x = q**2 (``_rows_in_x``) is odd in q or no
    palindrome centred on q**0, as z**2 = x - 2 + 1/x is.  Else c[g] is the
    row's upper half from x**g on times column g of a table of
    x**k + x**-k = sum_{g <= k} (2k / (k + g)) C(k + g, 2g) z**(2g), replaced
    whole when a row is longer.  The table is unique, so z**(2k) f has f's
    with g raised by k; ``lmov_check`` reads the pole z**-2 of fhat this way.
    """
    if not isinstance(f, LaurentQT):
        raise TypeError("zsquare_decompose expects a LaurentQT")
    table = {}
    # the rows come in key order, which is (e_t, e_q) order, and an even f has one row per t-exponent
    for lo, row in _rows_in_x(f):
        Q, n = lo + _HALF >> _SHIFT, len(row) >> 1
        if lo & 1 or lo - Q * _M != 1 - len(row) or row != row[::-1]:
            return None
        cols = _Z2_COLUMNS[0]
        if n >= len(cols):
            cols = _Z2_COLUMNS[0] = [
                col + [2 * k * comb(k + g, 2 * g) // (k + g) for k in range(max(g, len(cols)), n + 1)]
                for g, col in enumerate(cols + [[]] * (n + 1 - len(cols)))
            ]
        for g in range(n, -1, -1):
            c = sum(map(mul, row[n + g:], cols[g]))
            if c:
                table[(g, Q)] = c
    return table


def zsquare_recompose(table):
    """Inverse of zsquare_decompose (requires g >= 0 throughout)."""
    total = _ZERO
    for (g, Q), c in table.items():
        if g < 0:
            raise ValueError("cannot recompose a pole term into a polynomial")
        total = total + z_square_power(g) * t_power(Q) * c
    return total


# -- centred cyclotomic factors ---------------------------------------------------------


def _totient(d):
    """Euler's totient of d."""
    out, n, p = d, d, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    if n > 1:
        out -= out // n
    return out


@lru_cache(maxsize=None)
def cyclotomic_factor(d):
    """phi_d = q**-phi(d) * Phi_d(q**2), centred so that {k} = prod over d | k of phi_d.

    Built by that identity: {d} divided by the phi_e of its proper divisors e.
    """
    return exact_div(q_bracket(d), _phi_product(tuple((e, 1) for e in range(1, d) if d % e == 0)))


@lru_cache(maxsize=4096)
def _phi_product(exps):
    """prod phi_d**e over a sorted tuple of (d, e) pairs."""
    out = _ONE
    for d, e in exps:
        out = out * cyclotomic_factor(d) ** e
    return out


def _phi_cancel(f, exps, test):
    """f divided by each phi_d, d in ``test``, as often as it divides but at most exps[d] times.

    Lowers exps[d] in place by the number of divisions and returns the
    quotient; the exponents of d outside ``test`` are left alone.  phi_d is
    q**-phi(d) times the monic Phi_d(x) in x = q**2, so phi_d divides f
    exactly when Phi_d divides every row of f in x, one row per t-exponent
    and parity of the q-exponent (``_rows_in_x``).  Each row is one packed
    integer, divided by ``_cancel_rows``.  A coefficient of 2**62 or more in
    size, or a quotient that fails the certificate, leaves the decision to
    ``exact_div`` (``_phi_cancel_by_division``).
    """
    if max(map(abs, f._terms.values())) >> _ROW_BOUND_BITS:
        return _phi_cancel_by_division(f, exps, test)
    rows = _rows_in_x(f)
    width = max(len(row) for _, row in rows)
    bias = _bias(_ROW_BITS, width)
    # each row's two's complement digits, biased by flipping their top bits;
    # the zero digits above a shorter row flip and unbias to zero
    packed = [(base, (int.from_bytes(array("q", row), byteorder) ^ bias) - bias) for base, row in rows]
    out = _cancel_rows(packed, width, exps, test)
    if out is None:
        return _phi_cancel_by_division(f, exps, test)
    # a quotient by phi_d lies inside the q-range of f
    return f if out is True else _laurent(out, f._reach)


def _rows_in_x(f):
    """The rows of f in x = q**2: (key of the first entry, dense list of coefficients) pairs.

    One row per t-exponent and q-parity, numbered 2 * e_t + parity; along a
    row the key steps by 2 per x-step, so no q-exponent is read back.  The
    keys are split in sorted order, so each row's keys run from its first to
    its last, and the rows come out in the order of their first keys.
    """
    terms = f._terms
    classes = {}
    for key in sorted(terms):
        row_id = key + _HALF >> _SHIFT << 1 | key & 1
        keys = classes.get(row_id)
        if keys is None:
            classes[row_id] = [key]
        else:
            keys.append(key)
    rows = []
    for keys in classes.values():
        lo = keys[0]
        row = [0] * ((keys[-1] - lo >> 1) + 1)
        for key in keys:
            row[key - lo >> 1] = terms[key]
        rows.append((lo, row))
    return rows


def _phi_cancel_by_division(f, exps, test):
    """``_phi_cancel`` by ``exact_div``: f divided by each phi_d until it fails or exps[d] is 0.

    The fallback of the packed rows, for a coefficient of 2**62 or more in
    size and for a quotient that fails the certificate of ``_cancel_rows``.
    """
    for d in test:
        while exps[d]:
            quo = exact_div(f, cyclotomic_factor(d))
            if quo is None:
                break
            f, exps[d] = quo, exps[d] - 1
    return f


# -- packed rows in x = q**2 -------------------------------------------------------------

# one x-step per slot of a packed row, and every row coefficient below 2**62 in size
_ROW_BITS = 64
_ROW_BOUND_BITS = 62


@lru_cache(maxsize=4096)
def _packed_phi(exps):
    """prod Phi_d(x)**e over a sorted tuple of (d, e) pairs, packed.

    Returns (its value at x = 2**64, its degree, the sum and the largest of
    its coefficients in size).
    """
    deg = sum(_totient(d) * e for d, e in exps)
    terms = _phi_product(exps)._terms
    # the key of q**e * t**0 is e
    coeffs = [terms.get(2 * i - deg, 0) for i in range(deg + 1)]
    value = 0
    for c in reversed(coeffs):
        value = (value << _ROW_BITS) + c
    sizes = [abs(c) for c in coeffs]
    return value, deg, sum(sizes), max(sizes)


def _packed_rows(part, off, offsets, width, parities, n, bias):
    """An ``_exponent_lists`` part as one integer over n slots of 64 bits, bias = ``_bias(64, n)``.

    The term q**e_q * t**e_t sits in slot offsets[e_t] + ((e_q - off) >> 1),
    and width slots further up when ``parities`` is 2 and e_q - off is odd.
    """
    slots = array("q", bytes(n * 8))
    if parities == 1:
        for et, eq, c in zip(*part):
            slots[offsets[et] + (eq - off >> 1)] = c
    else:
        for et, eq, c in zip(*part):
            e = eq - off
            slots[offsets[et] + (e & 1) * width + (e >> 1)] = c
    # the slots are two's complement digits: flipping each top bit biases them
    return (int.from_bytes(slots, byteorder) ^ bias) - bias


def _split_rows(total, lo, width, ts, parities):
    """The nonzero rows (key of the first slot, packed row) of a packed total."""
    n = len(ts) * parities * width
    data = (total + _bias(_ROW_BITS, n)).to_bytes(n * 8, byteorder)
    bias, size = _bias(_ROW_BITS, width), width * 8
    rows = []
    i = 0
    for et in ts:
        for r in range(parities):
            row = int.from_bytes(data[i : i + size], byteorder) - bias
            if row:
                rows.append((et * _M + lo + r, row))
            i += size
    return rows


def _read_rows(rows, width, shift=0):
    """(term dict, largest coefficient in size) of packed rows times q**shift.

    Each row is read in ``width`` balanced digits; a row that has no such
    expansion returns None.  Slot i of a row is its first key plus 2 * i.
    """
    bias, size = _bias(_ROW_BITS, width), width * 8
    slots = array("q")
    try:
        slots.frombytes(b"".join(((row + bias) ^ bias).to_bytes(size, byteorder) for _, row in rows))
    except OverflowError:
        return None
    keys = chain.from_iterable(range(base + shift, base + shift + 2 * width, 2) for base, _ in rows)
    return dict(zip(compress(keys, slots), compress(slots, slots))), max(max(slots), -min(slots))


def _cancel_rows(rows, width, exps, test):
    """Packed rows divided by each phi_d as in ``_phi_cancel``: a term dict, True or None.

    rows are (key of the first slot, packed row) pairs of ``width`` slots,
    each below 2**62 in size.  Each row is divided by
    Phi_d(2**64) with ``divmod``: a nonzero remainder proves that Phi_d does
    not divide the row, but a zero one proves nothing by itself.  So the
    quotient q' of each row is read back in balanced digits and kept only
    when ||prod Phi||_1 * max|q'_i| < 2**63, over the product of the Phi_d
    divided out: then prod Phi * q' has digits below 2**63 in size and
    equals the row digit for digit, because a balanced base-2**64 expansion
    is unique.  Returns True when no phi_d divides, None when a quotient
    fails the certificate (exps is then left as it was, and the caller
    divides by ``exact_div`` instead), and the quotient's term dict
    otherwise, with exps lowered in place.
    """
    # the shortest row is the cheapest to divide, so it is tried first
    rows.sort(key=lambda row: row[1].bit_length())
    divided, shift, left = {}, 0, {}
    for d in test:
        e = k = exps[d]
        # phi_d**e first, which mostly divides, then phi_d one at a time
        while e:
            m, deg = _packed_phi(((d, k),))[:2]
            quos = []
            for base, row in rows:
                quo, rem = divmod(row, m)
                if rem:
                    break
                quos.append((base, quo))
            else:
                rows, e, shift = quos, e - k, shift + deg
                divided[d] = divided.get(d, 0) + k
                continue
            if k == 1:
                break
            k = 1
        left[d] = e
    if not shift:
        return True
    read = _read_rows(rows, width, shift)
    if read is None or _packed_phi(tuple(sorted(divided.items())))[2] * read[1] >> 63:
        return None
    exps.update(left)
    return read[0]


def bracket_factors(f):
    """Split a nonzero f as u * c * prod phi_d**e_d with u a signed monomial and c > 0.

    Returns (1/u, c, exps), exps a sorted tuple of (d, e) pairs.  The factors
    are found by trial division over the phi_d that fit the degree of f.
    Raises ValueError when f is not of this form.
    """
    if len(set(_split_keys(f._terms)[0])) != 1:
        raise ValueError(f"denominator {f} is not an integer times q-brackets")
    (hi, et), lead = f.leading()
    (lo, _), _ = f.trailing()
    # an integer times brackets is symmetric in q -> 1/q up to sign
    if (hi + lo) % 2:
        raise ValueError(f"denominator {f} is not an integer times q-brackets")
    shift, half = (hi + lo) // 2, (hi - lo) // 2
    c = f.content()
    inv_unit = LaurentQT({(-shift, -et): 1 if lead > 0 else -1})
    p = _div_int(f * inv_unit, c)
    exps = {}
    d = 1
    while half and d <= 2 * half * half:  # phi(d) >= sqrt(d / 2)
        tot = _totient(d)
        while tot <= half:
            quo = exact_div(p, cyclotomic_factor(d))
            if quo is None:
                break
            p, half = quo, half - tot
            exps[d] = exps.get(d, 0) + 1
        d += 1
    if p != _ONE:
        raise ValueError(f"denominator {f} is not an integer times q-brackets")
    return inv_unit, c, tuple(sorted(exps.items()))


def _div_int(f, g):
    """f with every coefficient divided by g, which divides them all."""
    if g == 1:
        return f
    return _laurent({k: c // g for k, c in f._terms.items()}, f._reach)


# -- rational functions --------------------------------------------------------


class RationalQT:
    """A value num / (c * prod_d phi_d**e_d), held in one canonical form.

    ``c`` is a positive integer, the exponents are a sorted tuple of (d, e)
    pairs with e > 0, and monomial units and the sign live in ``num``.  Two
    invariants make the form canonical: gcd(content(num), c) = 1, and no
    phi_d of the denominator divides num.  So ``==`` compares fields, the
    hash agrees with it and equal values give identical ``to_json()``.

    A sum takes the lcm of the denominators and multiplies each numerator
    only by its own missing factors; a product cancels each numerator
    against the other operand's denominator before multiplying.  Only the
    factors that may have become divisible are tested, all of them in one
    pass over the numerator's rows in q**2 (``_phi_cancel``, or
    ``_cancel_rows`` inside a packed sum).  A product with a scalar
    n * q**a * t**b / c_s cancels only gcd(n, c) and gcd(content(num),
    c_s): a monomial times an integer holds no part of a phi_d.  An
    explicit denominator in ``RationalQT(num, den)`` is factored once by
    ``bracket_factors``; one outside the bracket family raises ValueError.
    """

    __slots__ = ("num", "_c", "_exps", "_den", "_hash")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentQT.from_int(num)
        c, exps = 1, ()
        if den is not None:
            if isinstance(den, int):
                den = LaurentQT.from_int(den)
            if not den:
                raise ZeroDivisionError("zero denominator")
            if num:
                inv_unit, c, exps = bracket_factors(den)
                value = _canonical(num * inv_unit, c, dict(exps), [d for d, _ in exps])
                num, c, exps = value.num, value._c, value._exps
        _fill(self, num, c, exps)

    def __setattr__(self, *a):
        raise AttributeError("RationalQT is immutable")

    @classmethod
    def from_fraction(cls, fr):
        fr = Fraction(fr)
        return _rational(LaurentQT.from_int(fr.numerator), fr.denominator)

    @property
    def den(self):
        """The denominator c * prod phi_d**e_d as a Laurent polynomial."""
        if self._den is None:
            object.__setattr__(self, "_den", _phi_product(self._exps) * self._c)
        return self._den

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalQT):
            return x
        if isinstance(x, LaurentQT):
            return _rational(x)
        if isinstance(x, int):
            return _rational(LaurentQT.from_int(x))
        if isinstance(x, Fraction):
            return RationalQT.from_fraction(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        return RationalQT.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _rational(-self.num, self._c, self._exps)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO_RATIONAL
        if len(other.num) == 1 and not other._exps:
            return _scaled(self, other)
        if len(self.num) == 1 and not self._exps:
            return _scaled(other, self)
        ea, eb = dict(self._exps), dict(other._exps)
        # a phi_d in both denominators divides neither numerator already
        x = _canonical(self.num, other._c, eb, [d for d in eb if d not in ea])
        y = _canonical(other.num, self._c, ea, [d for d in ea if d not in eb])
        exps = dict(x._exps)
        for d, e in y._exps:
            exps[d] = exps.get(d, 0) + e
        # phi_d, prime in q for even d, splits for odd d, so the product may
        # hold it though neither factor does; a monomial factor is a unit
        # times an integer, which holds no part of it
        test = []
        if len(x.num) > 1 and len(y.num) > 1:
            test = [d for d in exps if d % 2]
        return _canonical(x.num * y.num, x._c * y._c, exps, test)

    __rmul__ = __mul__

    def __pow__(self, k):
        if isinstance(k, bool):
            raise TypeError("a bool is not an exponent")
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        # neither a prime of c nor all of a phi_d can divide num**k when it misses num
        return _rational(self.num**k, self._c**k, tuple((d, e * k) for d, e in self._exps if k))

    def __eq__(self, other):
        # a bool compares as the int it equals, as 1 == True does
        other = self._coerce(int(other) if isinstance(other, int) else other)
        if other is None:
            return NotImplemented
        return self._c == other._c and self._exps == other._exps and self.num == other.num

    def __hash__(self):
        if self._hash is None:
            # a value without phi_d may equal a LaurentQT, an int or a Fraction, and hashes as it
            num, c, terms = self.num, self._c, self.num._terms
            if self._exps or c > 1 and (len(terms) > 1 or 0 not in terms):
                value = (num, c, self._exps)
            else:
                value = num if c == 1 else Fraction(terms[0], c)
            object.__setattr__(self, "_hash", hash(value))
        return self._hash

    @classmethod
    def sum(cls, items):
        """The sum of many values, canonicalised once.

        Numerators over one denominator are added first.  The groups are then
        one vector of unshifted leaves (key, 1, 0) of the lift-and-add kernel
        (``_combine``), each numerator lifted only by its own missing factors,
        and the total is canonicalised on its basis, testing only the phi_d
        of ``_tested_phi``, a merged group counting as two values.
        """
        groups, merged = {}, {}
        for x in items:
            x = cls._coerce(x)
            if not x.num:
                continue
            key = (x._c, x._exps)
            num = groups.get(key)
            if num is None:
                groups[key] = x.num
            else:
                # a merged group holds a term dict and a bound on its exponents
                if type(num) is LaurentQT:
                    merged[key] = _reach_of(num)
                    num = groups[key] = dict(num._terms)
                merged[key] = max(merged[key], _reach_of(x.num))
                _add_terms(num, x.num._terms)
        parts = [
            (c, exps, _laurent(num, merged[c, exps]) if type(num) is dict else num)
            for (c, exps), num in groups.items()
            if num
        ]
        if not parts:
            return ZERO_RATIONAL
        if len(parts) == 1 and parts[0][:2] not in merged:
            c, exps, num = parts[0]
            return _rational(num, c, exps)
        held = [exps for _, exps, _ in parts] + [exps for _, exps in merged]
        # int keys: a key is hashed at every step of the kernel
        return _vector_value(dict(enumerate(parts)), [(i, 1, 0) for i in range(len(parts))], held)

    def reduced(self):
        """The value itself: every RationalQT is already in canonical form."""
        return self

    # -- conversions ------------------------------------------------------------

    def as_laurent(self):
        """The value as a Laurent polynomial, or None when it is not one."""
        return self.num if self._c == 1 and not self._exps else None

    def substitute_power(self, d):
        """q -> q**d, t -> t**d for a positive integer d."""
        num = self.num.substitute_power(d)
        # phi_k(q**d) is the product of the phi_j with j / gcd(j, d) = k
        exps = {}
        for k, e in self._exps:
            for g in range(1, d + 1):
                if d % g == 0 and gcd(k * g, d) == g:
                    exps[k * g] = exps.get(k * g, 0) + e
        return _canonical(num, self._c, exps, list(exps))

    def mirror(self):
        """q -> 1/q, t -> 1/t, which fixes every phi_d but phi_1 = -phi_1(1/q)."""
        num = self.num.mirror()
        if dict(self._exps).get(1, 0) % 2:
            num = -num
        return _rational(num, self._c, self._exps)

    def to_json(self):
        return {"num": self.num.to_records(), "den": self.den.to_records()}

    def __repr__(self):
        if self.den == _ONE:
            return f"RationalQT({format_laurent(self.num)!r})"
        return f"RationalQT({format_laurent(self.num)!r} / {format_laurent(self.den)!r})"


def _common_plan(parts):
    """The least common denominator of the parts {key: (c, exps, num)}, and each part's lift to it.

    Returns (c, top, lifts): c the lcm of the integers, top {d: e} the
    largest power of each phi_d, and lifts {key: (missing, k)}: num over the
    common denominator is k * num times the product of phi_d**e over
    ``missing``, a sorted tuple of (d, e) pairs.
    """
    c = lcm(*(x_c for x_c, _, _ in parts.values()))
    top = {}
    for _, exps, _ in parts.values():
        for d, e in exps:
            if e > top.get(d, 0):
                top[d] = e
    lifts = {}
    for key, (x_c, exps, _) in parts.items():
        have = dict(exps)
        missing = tuple(
            (d, e - have.get(d, 0)) for d, e in sorted(top.items()) if e > have.get(d, 0)
        )
        lifts[key] = (missing, c // x_c)
    return c, top, lifts


def _tested_phi(top, held):
    """The phi_d that can divide a sum of values over their common denominator, top {d: e}.

    ``held`` lists the phi_d exponents of each value added.  A phi_d can
    divide the total only when two values hold its top power: every other
    lifted numerator carries it, and it divides no canonical numerator times
    an integer and a monomial.
    """
    count = Counter(d for exps in held for d, e in exps if e == top.get(d))
    return [d for d, n in count.items() if n > 1]


def _lift(parts, lifts):
    """The numerators of the parts {key: (c, exps, num)} lifted as ``_common_plan`` plans.

    Returns {key: (f, k)} with num over the common denominator equal to
    k * f: f is num times its own missing phi_d, and k an integer left for
    the caller to fold into its own weights.
    """
    lifted = {}
    for key, (_, _, num) in parts.items():
        missing, k = lifts[key]
        # the integer scales the cached phi_d product when there is one
        if missing:
            num, k = num * (_phi_product(missing) * k if k > 1 else _phi_product(missing)), 1
        lifted[key] = (num, k)
    return lifted


def _fill(value, num, c, exps):
    setattr_ = object.__setattr__
    setattr_(value, "num", num)
    setattr_(value, "_c", c)
    setattr_(value, "_exps", exps)
    setattr_(value, "_den", None)
    setattr_(value, "_hash", None)


def _rational(num, c=1, exps=()):
    """A RationalQT from fields already in canonical form."""
    out = object.__new__(RationalQT)
    _fill(out, num, c, exps)
    return out


def _scaled(x, s):
    """x * s for a scalar s = n * q**a * t**b / c_s: one numerator term and no phi_d.

    With g1 = gcd(n, c) and g2 = gcd(content(num), c_s) the product is
    num * (n / g1) * q**a * t**b over (c / g1) * (c_s / g2) * prod phi_d**e_d,
    already canonical: both operands are, so the new numerator content and
    integer denominator are coprime, and a monomial times an integer holds no
    part of a primitive phi_d.
    """
    (shift, n), = s.num._terms.items()
    g1 = gcd(n, x._c)
    g2 = gcd(x.num.content(), s._c) if s._c > 1 else 1
    n //= g1
    if shift == 0 and n == 1 and g2 == 1:
        num = x.num
    else:
        items = x.num._terms.items()
        if g2 > 1:
            data = {key + shift: c // g2 * n for key, c in items}
        else:
            data = {key + shift: c * n for key, c in items}
        num = _laurent(data, _reach_of(x.num) + _reach_of(s.num))
    return _rational(num, x._c // g1 * (s._c // g2), x._exps)


def _canonical(num, c, exps, test):
    """num / (c * prod phi_d**e) in canonical form, exps a dict {d: e}.

    Cancels the content against c, then every power of each phi_d with d in
    ``test`` in one pass over num's rows in q**2 (``_phi_cancel``); the
    factors outside ``test`` must already be known not to divide num.
    """
    if not num:
        return ZERO_RATIONAL
    if c > 1:
        g = gcd(num.content(), c)
        num, c = _div_int(num, g), c // g
    # a monomial is a unit times an integer, so no phi_d divides it
    if test and len(num) > 1:
        num = _phi_cancel(num, exps, test)
    return _rational(num, c, tuple(sorted((d, e) for d, e in exps.items() if e)))


ZERO_RATIONAL = _rational(_ZERO)
ONE_RATIONAL = _rational(_ONE)


def bracket_quotient(num, c, ks):
    """num / (c * prod over k in ks of {k}) for a positive integer c.

    {k} = prod over d | k of phi_d, so the denominator is built factored,
    without the trial divisions of ``RationalQT(num, den)``.
    """
    exps = bracket_exponents(ks)
    return _canonical(num, c, exps, list(exps))


def bracket_scaled(x, ks, divide=False):
    """x times prod over k in ks of {k}, or x divided by it when ``divide``.

    Works on the phi_d exponents of the canonical x.  A product cancels each
    phi_d that the denominator shares with the brackets and multiplies num by
    the cached product of the rest; the phi_d are pairwise coprime and
    primitive, so no phi_d is tested.  A quotient tests only the phi_d that
    the denominator lacks: one it holds does not divide the canonical num.
    """
    if not x.num:
        return ZERO_RATIONAL
    exps, gain = dict(x._exps), bracket_exponents(ks)
    if not divide:
        extra = _fold_gain(exps, gain)
        return _times_phi(_canonical(x.num, x._c, exps, ()), extra)
    test = [d for d in gain if d not in exps]
    for d, e in gain.items():
        exps[d] = exps.get(d, 0) + e
    return _canonical(x.num, x._c, exps, test)


def common_denominator(values):
    """RationalQT values brought once to their least common denominator.

    Returns (c, exps, lifted) for the denominator c * prod phi_d**exps, exps
    a dict {d: e}, and each value's (f, k), k * f its numerator over it.
    """
    parts = {i: (x._c, x._exps, x.num) for i, x in enumerate(values)}
    c, top, lifts = _common_plan(parts)
    return c, top, list(_lift(parts, lifts).values())


def combination_basis(values, vectors):
    """Sums of w * q**e_q * t**e_t * values[key], one per vector, as a basis for ``bracket_combination``.

    values maps keys to RationalQT values, and each vector lists leaves
    (key, w, shift): w a nonzero int, shift the ``exponent_key`` of
    q**e_q * t**e_t.  Each value is lifted once, by the lift-and-add kernel
    (``_combine``).  Returns (c, exps, vectors, layout) over the common
    denominator c * prod phi_d**exps, exps a dict {d: e}: on packed rows
    (``_packed_basis``) each vector is one integer with a bound on its
    slots and ``layout`` places the rows; in term dicts each vector is its
    numerator, a LaurentQT, and ``layout`` is None.
    """
    return _combine(*_parts(values, vectors))


def combination_value(values, leaves):
    """The sum of w * q**e_q * t**e_t * values[key] over leaves (key, w, shift), canonical.

    One vector of ``combination_basis`` over the values that the leaves use,
    canonicalised on its basis, testing only the phi_d of ``_tested_phi``
    with each leaf counting as one value added.
    """
    parts, [leaves] = _parts({key: values[key] for key, _, _ in leaves}, [leaves])
    return _vector_value(parts, leaves, [values[key]._exps for key, _, _ in leaves])


def _parts(values, vectors):
    """The kernel's parts {key: (c, exps, num)} of the RationalQT values, and the vectors without zero values."""
    if not all(values.values()):
        # a zero value adds nothing, and has no rows to place
        vectors = [[leaf for leaf in leaves if values[leaf[0]]] for leaves in vectors]
    return {key: (x._c, x._exps, x.num) for key, x in values.items()}, vectors


def _vector_value(parts, leaves, held):
    """The kernel's one vector of leaves in canonical form, testing only ``_tested_phi(top, held)``."""
    c, top, [vector], layout = _combine(parts, [leaves])
    test = _tested_phi(top, held)
    if layout is None:
        return _canonical(vector, c, top, test)
    return _canonical_packed(vector[0], c, top, test, layout)


def _combine(parts, vectors):
    """The lift-and-add kernel: ``combination_basis`` over the values num / (c * prod phi_d**e) of parts.

    parts maps keys to canonical (c, exps, num).  The common denominator is
    planned once; then the values are packed and lifted on rows
    (``_packed_basis``, whose gate picks the route) or lifted as Laurent
    polynomials and added into term dicts (``_shifted_nums``).
    """
    c, top, lifts = _common_plan(parts)
    packed = _packed_basis(parts, lifts, vectors)
    if packed is not None:
        return (c, top, *packed)
    return c, top, _shifted_nums(_lift(parts, lifts), vectors), None


def _shifted_nums(lifted, vectors):
    """The term-dict numerator of each vector of leaves, over {key: (f, k)} lifted as by ``_lift``."""
    nums = []
    for leaves in vectors:
        data, reach = {}, 0
        get = data.get
        for key, w, shift in leaves:
            f, k = lifted[key]
            w *= k
            if not shift:
                _add_terms(data, f._terms, w)
                reach = max(reach, _reach_of(f))
                continue
            reach = max(reach, _reach_of(f) + max(map(abs, _exponents(shift))))
            for term, coeff in f._terms.items():
                term += shift
                coeff = coeff * w + get(term, 0)
                if coeff:
                    data[term] = coeff
                else:
                    del data[term]
        nums.append(_laurent(data, reach))
    return nums


# the gates of ``_packed_basis``, measured on the sums and bases of the benchmark workloads
_MANY_VECTORS = 4
_PACKED_MIN_TERMS = 64
_PACKED_MIN_LIFT = 2
_FEW_SLOTS_PER_TERM = 4
_MANY_SLOTS_PER_TERM = 16


def _packed_basis(parts, lifts, vectors):
    """(vectors, layout) of ``combination_basis`` on packed rows, or None.

    parts {key: (c, exps, num)} and lifts {key: (missing, k)} are as in
    ``_common_plan``.  Each core that a leaf uses is packed once into the
    rows in x = q**2 of the whole call (``_packed_rows``), at the lowest q-
    and t-shifts of its leaves, and lifted by one big-integer product with
    P(2**64), P its missing phi_d product (q**-deg P only moves slots).  A
    kink shifts q by an even exponent (kappa is twice a content sum), so each
    leaf (key, w, shift) keeps its q-parity row and adds w * k * (lifted
    core << 64 * offset), offset the slots between its shift and the core's;
    no leaf touches a term.  The rows are the shifted t-exponents that occur
    when each core has one leaf, else every t-exponent of the range (every
    second one when all have one parity), so that a t-shift moves whole
    rows; each q-parity that occurs gets its own rows.

    The one gate between packed rows and term dicts: it returns None, before
    any core is packed, for 1 to 3 vectors with fewer than 64 leaf terms or
    whose P add fewer than 2 x-steps per leaf term on average (a light lift
    costs more to pack than it saves), when a shift is odd in q, when the
    slot bound sum |w * k| * min(sum|num| * max|P|, max|num| * sum|P|) of a
    vector reaches 2**62, when the rows times the vectors take more than 16
    slots (4 for fewer than 4 vectors) per leaf term, or when an exponent of
    the rows reaches 2**31.  Each vector is returned with its slot bound.
    """
    many = len(vectors) >= _MANY_VECTORS
    if not many:
        size = sum([len(parts[key][2]) for leaves in vectors for key, _, _ in leaves])
        if size < _PACKED_MIN_TERMS:
            return None
        # each part's terms times the x-steps of its lift, formed once per part, not per leaf
        steps = {key: len(num) * _packed_phi(lifts[key][0])[1] for key, (_, _, num) in parts.items()}
        if _PACKED_MIN_LIFT * size > sum([steps[key] for leaves in vectors for key, _, _ in leaves]):
            return None
    # key -> (part, s, slot bound, lowest and highest lifted e_q, lowest and highest e_t,
    # t-exponents, the parities of e_t and of e_q), and key -> its leaves (vector, w, e_q, e_t)
    boxes, uses, bounds, size = {}, {}, [], 0
    for v, leaves in enumerate(vectors):
        bound = 0
        for key, w, shift in leaves:
            if shift & 1:
                return None
            box = boxes.get(key)
            if box is None:
                (missing, k), num = lifts[key], parts[key][2]
                part = _exponent_lists(num._terms)
                ts, qs = set(part[0]), set(part[1])
                sizes = list(map(abs, part[2]))
                _, s, norm, big = _packed_phi(missing)
                box = boxes[key] = (
                    part, s, k * min(sum(sizes) * big, max(sizes) * norm),
                    min(qs) - s, max(qs) + s, min(ts), max(ts), ts, {e & 1 for e in ts}, {e - s & 1 for e in qs},
                )
                uses[key] = []
            uses[key].append((v, w, *(_exponents(shift) if shift else (0, 0))))
            bound += abs(w) * box[2]
            size += len(box[0][2])
        if bound >> _ROW_BOUND_BITS:
            return None
        bounds.append(bound)
    if not boxes:
        return None
    leaves = [(boxes[key], e_q, e_t) for key, use in uses.items() for _, _, e_q, e_t in use]
    lo = min(box[3] + e_q for box, e_q, _ in leaves)
    hi = max(box[4] + e_q for box, e_q, _ in leaves)
    t_lo = min(box[5] + e_t for box, _, e_t in leaves)
    t_hi = max(box[6] + e_t for box, _, e_t in leaves)
    parities = len(set().union(*(box[9] for box in boxes.values())))
    t_step = 3 - len({p + e_t & 1 for box, _, e_t in leaves for p in box[8]})
    width = (hi - lo >> 1) + 1
    stride = parities * width
    if all(len(use) == 1 for use in uses.values()):
        # each core sits where its one leaf puts it, so only the rows that occur are needed
        ts = sorted({et + use[0][3] for key, use in uses.items() for et in boxes[key][7]})
    else:
        ts = list(range(t_lo, t_hi + 1, t_step))
    rows = {et: i * stride for i, et in enumerate(ts)}
    reach = max(-lo, hi, -t_lo, t_hi)
    n = len(ts) * stride
    if n * len(vectors) > (_MANY_SLOTS_PER_TERM if many else _FEW_SLOTS_PER_TERM) * size or reach >= _BOUND:
        return None
    # each core is packed at the lowest q- and t-shifts of its leaves, lifted, and added
    # into every vector that uses it before the next core is packed
    bias, totals = _bias(_ROW_BITS, n), [0] * len(vectors)
    for key, (part, s, _, _, _, _, _, row_ts, _, _) in boxes.items():
        (missing, k), use = lifts[key], uses[key]
        q0, t0 = min([leaf[2] for leaf in use]), min([leaf[3] for leaf in use])
        offsets = {et: rows[et + t0] for et in row_ts} if t0 else rows
        core = _packed_rows(part, lo + s - q0, offsets, width, parities, n, bias) * _packed_phi(missing)[0]
        for v, w, e_q, e_t in use:
            w *= k
            totals[v] += (core if w == 1 else core * w) << _ROW_BITS * ((e_t - t0) // t_step * stride + (e_q - q0 >> 1))
    return list(zip(totals, bounds)), (lo, width, ts, parities, reach)


def bracket_combination(basis, weights, c, ks):
    """sum_i weights[i] * vector_i / c times prod over k in ks of {k}, canonical.

    ``basis`` is ``combination_basis(values, vectors)`` and the weights are
    integers, so the values are brought to one denominator once for many
    combinations.  The brackets cancel against that denominator by exponents
    (``_fold_gain``); only the phi_d left in it are tested.  On a packed
    basis the vectors are added as big integers and the total is
    canonicalised on its rows (``_canonical_packed``: the content as one gcd
    over the slots, the phi_d divided out of each row, one term dict read).
    A total whose slot bound reaches 2**62, and a basis of term dicts, are
    added term by term.
    """
    lc, top, vectors, layout = basis
    exps, c = dict(top), lc * c
    extra = _fold_gain(exps, bracket_exponents(ks))
    test = [d for d in top if exps[d]]
    if layout is not None:
        total = bound = 0
        for (value, b), w in zip(vectors, weights):
            if w:
                total += value * w
                bound += abs(w) * b
        if not bound >> _ROW_BOUND_BITS:
            return _times_phi(_canonical_packed(total, c, exps, test, layout), extra)
        # each vector's own slots are below 2**62 in size, so it reads back alone
        width, reach = layout[1], layout[4]
        vectors = [
            _laurent(_read_rows(_split_rows(value, *layout[:4]), width)[0], reach) if value and w else _ZERO
            for (value, _), w in zip(vectors, weights)
        ]
    data, reach = {}, 0
    for num, w in zip(vectors, weights):
        if w:
            _add_terms(data, num._terms, w)
            reach = max(reach, _reach_of(num))
    return _times_phi(_canonical(_laurent(data, reach), c, exps, test), extra)


def _canonical_packed(total, c, exps, test, layout):
    """total / (c * prod phi_d**exps) in canonical form, total packed in the rows of ``layout``.

    layout is (lo, width, ts, parities, reach), the rows as ``_packed_basis``
    places them and a bound on their exponents; every slot of total is
    below 2**62 in size.
    exps is a dict {d: e}, lowered in place, and only the phi_d in ``test``
    are tested.  The content is one gcd over the slots and one exact
    division, the phi_d are divided out of each row by ``_cancel_rows``, and
    a quotient that fails its certificate leaves them to ``exact_div``
    (``_phi_cancel_by_division``).  The term dict is read once.
    """
    if not total:
        return ZERO_RATIONAL
    lo, width, ts, parities, reach = layout
    if c > 1:
        n = len(ts) * parities * width
        bias = _bias(_ROW_BITS, n)
        g = gcd(gcd(*array("q", ((total + bias) ^ bias).to_bytes(n * 8, byteorder))), c)
        if g > 1:
            total, c = total // g, c // g
    rows = _split_rows(total, lo, width, ts, parities)
    out = _cancel_rows(rows, width, exps, test)
    if out is True:
        num = _laurent(_read_rows(rows, width)[0], reach)
    elif out is None:
        num = _phi_cancel_by_division(_laurent(_read_rows(rows, width)[0], reach), exps, test)
    else:
        num = _laurent(out, reach)
    return _rational(num, c, tuple(sorted((d, e) for d, e in exps.items() if e)))


def _fold_gain(exps, gain):
    """Cancel prod phi_d**gain against the denominator prod phi_d**exps, both dicts {d: e}.

    exps is lowered in place; returns what is left of gain, a sorted tuple of
    (d, e) pairs that multiplies the numerator.
    """
    extra = []
    for d, g in gain.items():
        e = exps.get(d, 0)
        if g > e:
            extra.append((d, g - e))
        exps[d] = max(e - g, 0)
    return tuple(sorted(extra))


def _times_phi(value, extra):
    """The canonical value times prod phi_d**e over ``extra``, sorted (d, e) pairs.

    A product of primitive phi_d keeps num's content, and shares no factor
    with a phi_d of the denominator, so the result is canonical.
    """
    if extra and value.num:
        return _rational(value.num * _phi_product(extra), value._c, value._exps)
    return value


def bracket_exponents(ks):
    """{d: e} with prod over k in ks of {k} = prod phi_d**e."""
    exps = {}
    for k in ks:
        for d in range(1, k + 1):
            if k % d == 0:
                exps[d] = exps.get(d, 0) + 1
    return exps


def q_one_leading(f):
    """(v, lead) with f(exp(h), t) = h**v * lead(t) + O(h**(v+1)), for f nonzero.

    ``f`` is a LaurentQT or a RationalQT; ``lead`` is a Laurent polynomial in
    t over the rationals, held as a RationalQT with an integer denominator.
    The coefficient of h**k is sum c * e_q**k / k! per t-exponent.  On one
    t-slice with n distinct q-exponents the first n of these sums cannot all
    vanish (the Vandermonde matrix is nonsingular), so the loop ends at k < n.
    A RationalQT is read factored: phi_1 = 2h + O(h**3), and phi_d for d >= 2
    tends to Phi_d(1), so the denominator contributes e_1 and
    c * 2**e_1 * prod Phi_d(1)**e_d.
    """
    if isinstance(f, RationalQT):
        v, lead = q_one_leading(f.num)
        unit = f._c
        for d, e in f._exps:
            unit *= (2 if d == 1 else sum(cyclotomic_factor(d)._terms.values())) ** e
        return v - dict(f._exps).get(1, 0), _canonical(lead.num, lead._c * unit, {}, ())
    if not f:
        raise ValueError("the zero polynomial has no leading term at q = 1")
    slices = {}
    for et, eq, c in zip(*_exponent_lists(f._terms)):
        slices.setdefault(et, []).append([eq, c])
    k, den = 0, 1
    while True:
        lead = {}
        for et, terms in slices.items():
            s = 0
            for term in terms:
                s += term[1]
                term[1] *= term[0]
            if s:
                lead[(0, et)] = s
        if lead:
            return k, _canonical(LaurentQT(lead), den, {}, ())
        k += 1
        den *= k
