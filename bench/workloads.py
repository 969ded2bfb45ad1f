"""Seeded, fixed operation lists for the opoly CLI benchmark.

A run is a whole number of *rounds*.  Every round of a workload has the same
make-up (the same verbs, ``--what`` kinds and formats, in a seeded order);
only the families, parameters and degrees are drawn from the seed.  No two
operations of a run (warm-up included) share a family spec or a
``(from, to)`` pair, so a cache can only exploit sharing inside one CLI call.

``tables`` and ``verify`` rounds each hold one operation on the
alpha + beta = -1 line (Chebyshev T, Bessel alpha = -1, then further Jacobi
and Hahn points).  Those inputs depend only on the round index, never on the
seed: the removable 0/0 there makes them exit 2 today, and they are counted
as failed until it is mended.

Nothing here imports opoly: the lists are plain data, built before the
first timed operation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

CONTINUOUS = "continuous"
DISCRETE = "discrete"

WORKLOADS = ("tables", "verify", "connect")

# Nominal seconds one round takes on the reference machine (2 cores, CPython
# 3.11.7).  They only size the list: a run of --seconds S holds
# round(S / ROUND_SECONDS) rounds and never looks at the clock while it runs,
# so a faster program measures the same work in less time.
ROUND_SECONDS = {"tables": 1.1, "verify": 2.0, "connect": 0.62}

TABLE_KINDS = ("recurrence", "xpn", "derivative", "delta", "starred", "primed", "hatted")

# Degree bands: narrow, so that no single operation dominates a run.
TABULATE_N = (50, 70)
GENERATE_N = (30, 40)   # generate prints every p_0..p_n: ~100 KB at n = 40
REPR_N = (50, 70)
VERIFY_N = (7, 10)
CONNECT_N = (14, 22)
PARAM_DERIV_N = (5, 8)

CONTINUOUS_FAMILIES = ("jacobi", "gegenbauer", "laguerre", "bessel", "raw-continuous")
DISCRETE_FAMILIES = ("hahn", "hahn-q", "meixner", "krawtchouk", "charlier", "raw-discrete")
CLOSED_FORM_FAMILIES = ("laguerre", "bessel", "gegenbauer",
                        "hahn", "hahn-q", "meixner", "krawtchouk", "charlier")

PARAMETERS = {
    "jacobi": ("alpha", "beta"), "gegenbauer": ("alpha",), "laguerre": ("alpha",),
    "hermite": (), "bessel": ("alpha",), "hahn": ("alpha", "beta", "N"),
    "hahn-q": ("alpha", "beta", "N"), "meixner": ("gamma", "mu"),
    "krawtchouk": ("p", "N"), "charlier": ("mu",), "k-family": ("alpha", "beta"),
}
KINDS = {name: (DISCRETE if name in ("hahn", "hahn-q", "meixner", "krawtchouk",
                                     "charlier", "k-family") else CONTINUOUS)
         for name in PARAMETERS}

# The catalog's parameter-derivative formulas (family, parameter).
PARAM_DERIV_PAIRS = tuple(
    (name + monic, param)
    for name, params in (("jacobi", ("alpha", "beta")), ("gegenbauer", ("alpha",)),
                         ("laguerre", ("alpha",)), ("bessel", ("alpha",)),
                         ("hahn", ("alpha", "beta")), ("meixner", ("gamma", "mu")),
                         ("krawtchouk", ("p",)), ("charlier", ("mu",)),
                         ("k-family", ("beta",)))
    for monic in ("", "-monic")
    for param in params) + (("hahn-q", "alpha"), ("hahn-q", "beta"))


def rational_text(value: Fraction) -> str:
    """``p/q``, or ``p`` for an integer: the CLI's spelling of a rational."""
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Family:
    """A catalog family at given parameters, or a monic raw spec.

    For raw specs ``params`` holds a, b, c, d, e.
    """

    name: str
    kind: str
    params: tuple[tuple[str, Fraction], ...]

    @property
    def base(self) -> str:
        return self.name[: -len("-monic")] if self.name.endswith("-monic") else self.name

    @property
    def monic(self) -> bool:
        return self.name == "raw" or self.name.endswith("-monic")

    def arg(self) -> str:
        """The CLI spelling of the family."""
        if self.name == "raw":
            return "raw:kind=" + self.kind + "".join(
                f",{k}={rational_text(v)}" for k, v in self.params) + ",k=monic"
        if not self.params:
            return self.name
        return self.name + ":" + ",".join(f"{k}={rational_text(v)}" for k, v in self.params)

    def label(self) -> str:
        """Family name for coverage reports (raw specs by kind)."""
        return f"raw-{self.kind}" if self.name == "raw" else self.base


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the checker needs to know about it.

    ``what`` is the ``--what`` kind (tabulate, repr), the method (connect) or
    the parameter (param-deriv).  ``fault`` marks the alpha + beta = -1
    operations.
    """

    verb: str
    what: str
    fmt: str
    n: int
    fams: tuple[Family, ...]
    fault: bool = False

    def argv(self) -> list[str]:
        if self.verb == "tabulate":
            return ["tabulate", "--family", self.fams[0].arg(), "--what", self.what,
                    "--n-max", str(self.n), "--format", self.fmt]
        if self.verb == "generate":
            return ["generate", "--family", self.fams[0].arg(), "--n-max", str(self.n),
                    "--format", self.fmt]
        if self.verb == "verify":
            return ["verify", "--family", self.fams[0].arg(), "--n-max", str(self.n),
                    "--format", self.fmt]
        if self.verb == "repr":
            return ["repr", "--family", self.fams[0].arg(), "--what", self.what,
                    "--n", str(self.n), "--format", self.fmt]
        if self.verb == "connect":
            return ["connect", "--from", self.fams[0].arg(), "--to", self.fams[1].arg(),
                    "--n", str(self.n), "--method", self.what, "--format", self.fmt]
        if self.verb == "param-deriv":
            fam = self.fams[0]
            return ["param-deriv", "--family", fam.name, "--param", self.what,
                    "--n", str(self.n), "--at",
                    ",".join(f"{k}={rational_text(v)}" for k, v in fam.params), "--format", self.fmt]
        raise ValueError(f"unknown verb {self.verb!r}")

    @property
    def group(self) -> str:
        """Verb, kind and format: the unit the checker's sample covers."""
        if self.verb in ("tabulate", "repr", "generate"):
            return f"{self.verb}:{self.what}:{self.fmt}"
        if self.verb == "connect":
            return f"connect:{self.what}"
        return self.verb


# ---------------------------------------------------------------------------
# Parameter draws.  Ranges keep every formula denominator and every k_n away
# from zero for the degrees drawn, so that no seeded operation fails.
# ---------------------------------------------------------------------------

DENOMINATORS = tuple(range(1, 13))
N_MARGINS = tuple(range(3, 41))  # N - n for the families with a lattice size N


class _Draw:
    """Seeded draws that never hand out the same spec or pair twice.

    Families, formulas, degrees, denominators and lattice sizes are dealt
    from shuffled decks rather than drawn independently, so every run holds
    nearly the same mix of them and the seed mostly moves which values meet.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()
        self.decks: dict[tuple, list] = {}

    def fresh(self, make):
        while True:
            value = make()
            key = tuple(f.arg() for f in value) if isinstance(value, tuple) else value.arg()
            if key not in self.seen:
                self.seen.add(key)
                return value

    def deal(self, items: tuple):
        deck = self.decks.setdefault(items, [])
        if not deck:
            deck.extend(items)
            self.rng.shuffle(deck)
        return deck.pop()

    def degree(self, band: tuple[int, int]) -> int:
        return self.deal(tuple(range(band[0], band[1] + 1)))

    def rat(self, lo, hi) -> Fraction:
        """A rational in the open interval (lo, hi) with denominator at most 12."""
        while True:
            q = self.deal(DENOMINATORS)
            first, last = math.floor(lo * q) + 1, math.ceil(hi * q) - 1
            if first <= last:
                return Fraction(self.rng.randint(first, last), q)

    def lattice(self, n: int) -> Fraction:
        return Fraction(n + self.deal(N_MARGINS))


# ---------------------------------------------------------------------------
# Parameter draws.  Ranges keep every formula denominator and every k_n away
# from zero for the degrees drawn, so that no seeded operation fails.
# ---------------------------------------------------------------------------

def _pair_off_line(draw: _Draw) -> tuple[Fraction, Fraction]:
    while True:
        alpha, beta = draw.rat(-1, 4), draw.rat(-1, 4)
        if alpha + beta != -1:
            return alpha, beta


def _catalog(draw: _Draw, name: str, n: int, monic: bool = False) -> Family:
    """A catalog family admissible up to degree n + 2."""
    if name in ("jacobi", "hahn", "hahn-q"):
        alpha, beta = _pair_off_line(draw)
        values = {"alpha": alpha, "beta": beta, "N": draw.lattice(n)}
    elif name == "gegenbauer":
        values = {"alpha": draw.rat(0, 6)}
    elif name in ("laguerre", "bessel"):
        values = {"alpha": draw.rat(-1, 6)}
    elif name == "meixner":
        values = {"gamma": draw.rat(0, 4), "mu": draw.rat(0, 1)}
    elif name == "krawtchouk":
        values = {"p": draw.rat(0, 1), "N": draw.lattice(n)}
    elif name == "charlier":
        values = {"mu": draw.rat(0, 6)}
    elif name == "k-family":
        values = {"alpha": draw.rat(0, 3), "beta": draw.rat(-3, 3)}
    elif name == "hermite":
        values = {}
    else:
        raise ValueError(name)
    return Family(name + ("-monic" if monic else ""), KINDS[name],
                  tuple((k, values[k]) for k in PARAMETERS[name]))


def _raw_sigma(draw: _Draw) -> tuple[Fraction, Fraction, Fraction]:
    # c != 0 keeps raw specs off the c = 0 closed route of power_in_basis,
    # whose (e/b)_m vanishes when e/b is a non-positive integer; the catalog
    # families cover c = 0.
    a = Fraction(0) if draw.rng.random() < 0.25 else draw.rat(-2, 2)
    return a, draw.rat(-3, 3), draw.rng.choice((1, -1)) * draw.rat(0, 3)


def _raw_tau(draw: _Draw, a: Fraction) -> tuple[Fraction, Fraction]:
    # d has the sign of a and |d| > 2|a|: every linear denominator
    # (2an + d - ka for the k in the formulas) then keeps that sign.
    sign = 1 if a > 0 else -1 if a < 0 else draw.rng.choice((1, -1))
    return sign * (2 * abs(a) + draw.rat(0, 3)), draw.rat(-3, 3)


def _raw(draw: _Draw, kind: str, sigma=None) -> Family:
    a, b, c = sigma if sigma is not None else _raw_sigma(draw)
    d, e = _raw_tau(draw, a)
    return Family("raw", kind, (("a", a), ("b", b), ("c", c), ("d", d), ("e", e)))


def _family(draw: _Draw, label: str, n: int) -> Family:
    if label.startswith("raw-"):
        return _raw(draw, label[len("raw-"):])
    return _catalog(draw, label, n)


# ---------------------------------------------------------------------------
# The alpha + beta = -1 line: fixed inputs, indexed by round.
# ---------------------------------------------------------------------------

def _unit_fractions():
    """1/2, 1/3, 2/3, 1/4, 3/4, ... : every rational in (0, 1), once."""
    q = 2
    while True:
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)
        q += 1


def line_family(index: int) -> Family:
    """The index-th family on the alpha + beta = -1 line."""
    if index == 0:
        return Family("jacobi", CONTINUOUS, (("alpha", Fraction(-1, 2)), ("beta", Fraction(-1, 2))))
    if index == 1:
        return Family("bessel", CONTINUOUS, (("alpha", Fraction(-1)),))
    j = index - 2
    fractions = _unit_fractions()
    next(fractions)  # 1/2 is Chebyshev T, already index 0
    for _ in range(j // 2):
        next(fractions)
    alpha = -next(fractions)
    if j % 2 == 0:
        return Family("jacobi", CONTINUOUS, (("alpha", alpha), ("beta", -1 - alpha)))
    return Family("hahn", DISCRETE, (("alpha", alpha), ("beta", -1 - alpha), ("N", Fraction(80))))


LINE_TABLE_VERBS = ("recurrence", "xpn", "derivative", "starred", "primed", "hatted", "generate")


def _line_op(workload: str, index: int) -> Op:
    fam = line_family(index)
    if workload == "verify":
        return Op("verify", "", "json", 8, (fam,), fault=True)
    what = LINE_TABLE_VERBS[index % len(LINE_TABLE_VERBS)]
    if what == "generate":
        return Op("generate", "", "json", 35, (fam,), fault=True)
    return Op("tabulate", what, "json", 60, (fam,), fault=True)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

ALL_FAMILIES = CONTINUOUS_FAMILIES + DISCRETE_FAMILIES


def _tables_round(draw: _Draw) -> list[Op]:
    ops = []
    for what in TABLE_KINDS:
        pool = DISCRETE_FAMILIES if what == "delta" else ALL_FAMILIES
        for form in ("json", "csv"):
            n, label = draw.degree(TABULATE_N), draw.deal(pool)
            ops.append(Op("tabulate", what, form, n,
                          (draw.fresh(lambda: _family(draw, label, n)),)))
    for form in ("json", "csv"):
        n, label = draw.degree(GENERATE_N), draw.deal(ALL_FAMILIES)
        ops.append(Op("generate", "", form, n, (draw.fresh(lambda: _family(draw, label, n)),)))
    for what, pool in (("series", ALL_FAMILIES), ("in-basis", ALL_FAMILIES),
                       ("closed-form", CLOSED_FORM_FAMILIES)):
        n, label = draw.degree(REPR_N), draw.deal(pool)
        ops.append(Op("repr", what, "json", n, (draw.fresh(lambda: _family(draw, label, n)),)))
    return ops


def _verify_round(draw: _Draw) -> list[Op]:
    ops = []
    for label in ALL_FAMILIES:
        n = draw.degree(VERIFY_N)
        ops.append(Op("verify", "", "json", n, (draw.fresh(lambda: _family(draw, label, n)),)))
    return ops


SHARED_SIGMA_KINDS = ("jacobi", "gegenbauer", "laguerre", "bessel", "hahn",
                      "sigma-x", "raw-continuous", "raw-discrete")


def _shared_sigma_pair(draw: _Draw, kind: str, n: int) -> tuple[Family, Family]:
    """Two monic families with the same sigma: the recurrence route applies."""
    if kind == "gegenbauer":
        return _catalog(draw, "gegenbauer", n, True), _catalog(draw, "jacobi", n, True)
    if kind == "hahn":
        # sigma = -x^2 + (N + alpha) x: move alpha down by j and N up by j
        j = draw.rng.randint(1, 3)
        alpha, beta = _pair_off_line(draw)
        big_n = draw.lattice(n)
        src = Family("hahn-monic", DISCRETE, (("alpha", alpha + j), ("beta", beta), ("N", big_n)))
        dst = Family("hahn-monic", DISCRETE, (("alpha", alpha), ("beta", beta), ("N", big_n + j)))
        return src, dst
    if kind == "sigma-x":  # Charlier, Meixner and Krawtchouk all have sigma = x
        names = draw.rng.sample(("charlier", "meixner", "krawtchouk"), 2)
        return _catalog(draw, names[0], n, True), _catalog(draw, names[1], n, True)
    if kind.startswith("raw-"):
        sigma = _raw_sigma(draw)
        sub = kind[len("raw-"):]
        return _raw(draw, sub, sigma), _raw(draw, sub, sigma)
    return _catalog(draw, kind, n, True), _catalog(draw, kind, n, True)


ORACLE_FAMILIES = ("jacobi", "gegenbauer", "laguerre", "bessel", "hermite",
                   "hahn", "hahn-q", "meixner", "krawtchouk", "charlier")


def _connect_round(draw: _Draw) -> list[Op]:
    ops = []
    for _ in range(4):
        n, kind = draw.degree(CONNECT_N), draw.deal(SHARED_SIGMA_KINDS)
        ops.append(Op("connect", "auto", "json", n,
                      draw.fresh(lambda: _shared_sigma_pair(draw, kind, n))))
    for _ in range(4):
        n, src, dst = draw.degree(CONNECT_N), draw.deal(ORACLE_FAMILIES), draw.deal(ORACLE_FAMILIES)
        if src == dst == "hermite":
            dst = "jacobi"
        ops.append(Op("connect", "oracle", "json", n,
                      draw.fresh(lambda: (_catalog(draw, src, n), _catalog(draw, dst, n)))))
    for _ in range(4):
        n, (name, param) = draw.degree(PARAM_DERIV_N), draw.deal(PARAM_DERIV_PAIRS)
        base = name[: -len("-monic")] if name.endswith("-monic") else name
        fam = draw.fresh(lambda: Family(name, KINDS[base], _catalog(draw, base, n).params))
        ops.append(Op("param-deriv", param, "json", n, (fam,)))
    return ops


_ROUNDS = {"tables": _tables_round, "verify": _verify_round, "connect": _connect_round}
_HAS_LINE = ("tables", "verify")


@dataclass(frozen=True)
class Plan:
    warmup: tuple[Op, ...]
    ops: tuple[Op, ...]
    rounds: int
    round_size: int


def build(workload: str, seed: int, seconds: float) -> Plan:
    """The warm-up round and the timed list for one run."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    draw = _Draw(random.Random(f"opoly-bench:{workload}:{seed}"))
    make = _ROUNDS[workload]
    warmup = make(draw)
    draw.rng.shuffle(warmup)
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    ops: list[Op] = []
    for index in range(rounds):
        block = make(draw)
        if workload in _HAS_LINE:
            block.append(_line_op(workload, index))
        draw.rng.shuffle(block)
        ops.extend(block)
    return Plan(tuple(warmup), tuple(ops), rounds, len(ops) // rounds)


def sample(plan: Plan, workload: str, seed: int) -> list[int]:
    """Indices of the operations the checker inspects.

    Every operation of ``verify`` (its check is a count).  Elsewhere a seeded
    sample that holds one operation of every group (verb, kind, format), one
    of every verb on every family, and the first two alpha + beta = -1
    operations, which the checker inspects once they succeed.
    """
    if workload == "verify":
        return list(range(len(plan.ops)))
    rng = random.Random(f"opoly-bench-sample:{workload}:{seed}")
    order = list(range(len(plan.ops)))
    rng.shuffle(order)
    chosen: set[int] = set()
    covered: set[tuple[str, str]] = set()
    for i in order:
        op = plan.ops[i]
        if op.fault:
            continue
        needs = {(op.group, "")} | {(op.verb, f.label()) for f in op.fams}
        if not needs <= covered:
            chosen.add(i)
            covered |= needs
    chosen.update([i for i, op in enumerate(plan.ops) if op.fault][:2])
    return sorted(chosen)
