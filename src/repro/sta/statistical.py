"""Monte-Carlo statistical STA (SSTA by sampling).

Process variation enters conventional STA as per-sample scaling of the
characterised data: every NLDM delay/slew table is multiplied by a
lognormal cell-speed factor and every wire's R and C by lognormal
interconnect factors.  Arrival and slack *distributions* come out of
the sample sweep; the drivers report the 5/50/95 quantiles.

The sweep is sample-parallel.  The design is compiled into its
:class:`~repro.sta.graph.TimingGraph` and checked once per process
(:func:`_compiled` keeps the last design, keyed by the netlist's content
and the cells' identity), and every block reads connectivity and level
order from that one graph.  Samples run in blocks sized to the design
(:func:`_block_size`): as many as fit :data:`_BLOCK_BYTES` of arrays
and at least :data:`_BLOCK`, so a c17 sweep of a few thousand samples
is one block.  The memo keeps the design's per-net constants beside the
graph (:func:`_compile`: loads, each arc's tables paired by input edge,
inverting flags, the nets that get required times), and a block walks
the graph's levels once with each net's arrival, slew and required time
held as one ``(2, block)`` array, row 0 rising and row 1 falling (the
level-by-level, all-patterns-in-one-array evaluation of a logic
simulator).  An arc
then costs one delay and one slew lookup for both input edges, and an
inverting arc swaps the rows with a ``[::-1]`` view.  No scaled library
is built: NLDM lookups multiply the nominal table entries by each
sample's cell factor before interpolating (as :meth:`NldmTable.lookup`
does with ``scale``), the same IEEE operations as a lookup on the
scaled table.  Every row is therefore *bit-identical* to
:meth:`StaEngine.analyze` on that sample's :func:`sample_library` /
:func:`sample_wire_specs` draw, which the tests use as the oracle.

Determinism is the load-bearing property: sample ``i`` draws from the
dedicated stream ``default_rng([salt, tag, seed, i])`` — no shared
sequential RNG — so the value of a sample depends neither on its block
nor on which worker computes it.  Building that generator per sample
costs more than the sample's timing does, so :func:`_block_normals`
draws a whole block in array passes: SeedSequence's hash of every
sample's entropy words (the eight output words in one stacked
pass), the PCG64 seeding and stepping on ``uint64`` halves of the
128-bit state, and NumPy's ziggurat fast path with its tables read
from the running NumPy (:func:`_ziggurat`).  Only a row with a
rejected draw (~1.8% of c17's one-column rows) is reset into the
thread's NumPy generator and drawn there.  The same draws bit for bit,
at 0.5–0.6 µs a sample in a 500-sample c17 block (0.3 µs in a
4,681-sample one) against 15–16 µs for ``default_rng`` (2-core x86-64
host).
Blocks fan out through
:func:`repro.exec.run_indexed` (one index per block), and sharded≡serial
quantiles are bit-for-bit identical (asserted by the corpus smoke in CI).

The sweep stays columnar: blocks return one array per metric.  A sweep
that is one block and resumed nothing keeps that block's arrays; others
are merged with any journal-resumed rows into index-ordered arrays.  The
quantiles take one sort of the stacked columns (:func:`_summarise`),
and :attr:`McResult.rows` is derived from the columns only when read.

:func:`run_noise_monte_carlo` adds the same statistical axis to the
paper's noise-aware propagation: aggressor alignments jitter per sample,
while the shared simulation window is pinned (``window_end``) so the
noiseless quiet reference — which does not depend on the alignment —
keeps one cache/store key across the whole sweep and is solved once.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial, reduce

import numpy as np

from .._util import require
from ..exec import ExecutionConfig, journal_for, run_indexed
from ..interconnect.elmore import elmore_delays_line
from ..interconnect.rcline import RcLineSpec
from ..library.characterize import CharacterizedCell
from ..library.nldm import NldmTable, interpolate
from .analysis import InputSpec, StaEngine
from .graph import TimingGraph
from .netlist import GateNetlist

__all__ = [
    "McVariation",
    "McResult",
    "sample_library",
    "sample_wire_specs",
    "run_sta_monte_carlo",
    "run_noise_monte_carlo",
]

#: Stream-family salt so SSTA draws never collide with other consumers
#: of the same base seed.
_STREAM_SALT = 0x55A57A

#: Bytes of arrays one block may keep live; a block holds as many
#: samples as fit (:func:`_block_size`).  A block's graph walk and draw
#: set-up cost the same at any width, so on c17 (2-core x86-64 host) a
#: sample costs 4–5 µs in a block of 256 and 1.2–1.8 µs in one of a few
#: thousand; the budget bounds the arrays a long sweep builds at once.
#: The pool gate counts blocks, so a design below ~200 gates forks later
#: than with 256-sample blocks; on that host one serial pass still beat
#: two workers where it now forks (c17 at 13,918 samples: 24 against
#: 45 ms; a 60-gate NAND2 netlist at 2,628: 51 against 73 ms).
_BLOCK_BYTES = 4 << 20

#: The fewest samples a block holds, however large the design: a block
#: pays Python work per net and pin at any width, which a design whose
#: sample outgrows the budget still spreads over this many samples.
_BLOCK = 256

#: ln(9) — converts an RC time constant into a 10–90% transition time
#: (as in :mod:`repro.sta.analysis`).
_LN9 = math.log(9.0)


def _rng_for(tag: str, seed: int, index: int) -> np.random.Generator:
    """The dedicated RNG stream of sample ``index`` (reference definition).

    The tag is hashed with :func:`zlib.crc32` (stable across processes
    and Python runs, unlike ``hash``) so differently-tagged sweeps with
    the same seed draw independent streams.  The sweeps draw these
    streams through :func:`_block_normals`, which yields the same values.
    """
    return np.random.default_rng(
        [_STREAM_SALT, zlib.crc32(tag.encode()), int(seed), int(index)])


# SeedSequence's hash constants (numpy.random.bit_generator); its pool
# holds four 32-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128), its
#: inverse mod 2¹²⁸, and its low word's 32-bit halves.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _M64)
_MULT_LO0, _MULT_LO1 = (np.uint64(_PCG_MULT & _M32),
                        np.uint64((_PCG_MULT >> 32) & _M32))
#: The 52 magnitude bits of a ziggurat draw.
_M52 = (1 << 52) - 1


def _uint32_words(n: int) -> list[int]:
    """``n >= 0`` as SeedSequence reads an integer: 32-bit words, low first."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _u32(value):
    """``value`` mod 2³²: Python ints are reduced, ``uint32`` arrays wrap."""
    return value & _M32 if isinstance(value, int) else value


#: ``generate_state``'s eight output hash steps as ``(8, 1)`` columns:
#: word ``j`` XORs pool word ``j mod 4`` with one constant and
#: multiplies by the next.
_OUT_CONSTS = [_INIT_B]
for _ in range(2 * _POOL):
    _OUT_CONSTS.append((_OUT_CONSTS[-1] * _MULT_B) & _M32)
_OUT_XOR, _OUT_MUL = (np.array(c, np.uint32)[:, None]
                      for c in (_OUT_CONSTS[:-1], _OUT_CONSTS[1:]))


def _generate_state(entropy: list) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` of every row.

    ``entropy`` holds ``L >= 4`` words, each a Python int shared by every
    row or a ``(m,)`` ``uint32`` array with one word per row (at least
    one is); each step of SeedSequence's ``mix_entropy`` runs once, on
    ints until an array enters it, and the eight output words are one
    stacked pass.  Returns the ``(4, m)`` ``uint64`` words.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = _u32(value * hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = _u32(_u32(x * _MIX_L) - _u32(y * _MIX_R))
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    value = (np.tile(pool, (2, 1)) ^ _OUT_XOR) * _OUT_MUL
    words = (value ^ (value >> 16)).astype(np.uint64)
    # Eight uint32 words read back as four little-endian uint64 words.
    return words[0::2] | (words[1::2] << 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, ``s·MULT + inc mod 2¹²⁸``, of ``uint64`` halves.

    The low word's 64×64-bit product is carried through 32-bit halves;
    every other product only needs its low 64 bits, which ``uint64``
    arithmetic wraps to.
    """
    a0, a1 = lo & _M32, lo >> 32
    p01, p10 = a0 * _MULT_LO1, a1 * _MULT_LO0
    mid = ((a0 * _MULT_LO0) >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = (a1 * _MULT_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
          + hi * _MULT_LO + lo * _MULT_HI)
    prod = lo * _MULT_LO
    lo = prod + inc_lo
    return hi + inc_hi + (lo < prod), lo


def _xsl_rr(hi, lo):
    """PCG64's output of states ``(hi, lo)``: ``hi ^ lo`` rotated right
    by the state's top six bits."""
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _pcg64_states(tag: str, seed: int, indices: Sequence[int]):
    """The PCG64 state :func:`_rng_for` starts from, for every index.

    Returns ``(state_hi, state_lo, inc_hi, inc_lo)``, ``uint64`` arrays
    of the 128-bit state and increment.  PCG64 takes ``initstate =
    w0·2⁶⁴ + w1`` and ``initseq = w2·2⁶⁴ + w3`` from its SeedSequence's
    four words; ``pcg64_srandom_r`` sets ``inc = 2·initseq + 1`` and
    ``state = (inc + initstate)·MULT + inc``.  Indices are grouped by
    word count (an index ``≥ 2³²`` adds entropy words).
    """
    head = [_STREAM_SALT, zlib.crc32(tag.encode()), *_uint32_words(int(seed))]
    n = len(indices)
    rest = np.fromiter(indices, np.uint64 if n == 0 or max(indices) <= _M64
                       else object, n)
    words, nwords = [], np.ones(n, np.intp)
    while True:
        words.append((rest & _M32).astype(np.uint32))
        rest = rest >> 32
        if not rest.any():
            break
        nwords += rest != 0
    if len(words) == 1:
        seeded = _generate_state(head + words)
    else:
        seeded = np.empty((_POOL, n), np.uint64)
        for count in range(1, len(words) + 1):
            rows = np.flatnonzero(nwords == count)
            seeded[:, rows] = _generate_state(
                head + [word[rows] for word in words[:count]])
    w0, w1, w2, w3 = seeded
    inc_hi, inc_lo = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    lo = inc_lo + w1
    return (*_pcg_step(inc_hi + w0 + (lo < w1), lo, inc_hi, inc_lo),
            inc_hi, inc_lo)


def _reset(bitgen: np.random.PCG64, state: int, inc: int) -> None:
    """Put ``bitgen`` at 128-bit ``state`` with increment ``inc``."""
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """NumPy's ziggurat tables ``(wi, ki)``, read from the running NumPy.

    ``standard_normal`` splits a raw ``r`` into ``idx = r & 0xff``, a
    sign bit and ``rabs = (r >> 9) & (2⁵²−1)``, and returns
    ``±rabs·wi[idx]`` at once where ``rabs < ki[idx]``.  NumPy does not
    export the tables, so each entry is probed: a PCG64 set to state
    ``(r − 1)·MULT⁻¹`` with ``inc = 1`` yields ``r`` next, and a draw
    took the fast path exactly when the state moved one step.  ``rabs =
    1`` gives ``wi[idx]``, and ``ki[idx]``, the least rejected ``rabs``,
    is searched next to ``2⁵²·wi[idx−1]/wi[idx]`` (``ki`` or ``ki − 1``
    for every idx above 2 in current NumPy: two probes), then by
    bisection.  Runs once per process, on first use (~870 draws).
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)

    def probe(idx: int, rabs: int) -> tuple[float, bool]:
        r = (rabs << 9) | idx
        _reset(bitgen, ((r - 1) * _PCG_MULT_INV) & _M128, 1)
        x = gen.standard_normal()
        return x, bitgen.state["state"]["state"] == r

    def edge(idx: int, guess: int) -> int:
        # The least rabs rejected at idx: the first two probes go next
        # to the guess (enough when it is ki or ki − 1), then bisection.
        lo, hi, probes = 0, 1 << 52, 0
        while lo < hi:
            mid = min(max(guess, lo), hi - 1) if probes < 2 else (lo + hi) // 2
            probes += 1
            if probe(idx, mid)[1]:
                lo = mid + 1
            else:
                hi = mid
        return lo

    wi = np.zeros(256)
    for idx in range(256):
        x, fast = probe(idx, 1)
        wi[idx] = x if fast else 0.0
    ki = np.array([edge(idx, int(wi[idx - 1] / wi[idx] * 2**52)
                        if idx and wi[idx - 1] and wi[idx] else 0)
                   for idx in range(256)], np.uint64)
    wi.flags.writeable = ki.flags.writeable = False
    return wi, ki


def _ziggurat_fast(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``standard_normal``'s fast path on raw ``uint64`` outputs ``r``:
    the draws, and where each was accepted (elsewhere NumPy rejects)."""
    wi, ki = _ziggurat()
    idx = (r & 0xFF).astype(np.intp)
    rabs = (r >> 9) & _M52
    x = rabs.astype(float) * wi[idx]
    return np.where((r >> 8) & 1 == 1, -x, x), rabs < ki[idx]


#: Each thread's generator for :func:`_scalar_normals`, made on first use.
_RESTART = threading.local()


def _scalar_normals(draws: np.ndarray,
                    restarts: list[tuple[int, int, int, int]]) -> None:
    """The rejection path: for each ``(row, column, state, inc)``, NumPy
    itself draws ``draws[row, column:]`` from that PCG64 state, on this
    thread's generator (reset for every row, so no state carries over)."""
    gen = getattr(_RESTART, "gen", None)
    if gen is None:
        gen = _RESTART.gen = np.random.Generator(np.random.PCG64(0))
    for row, column, state, inc in restarts:
        _reset(gen.bit_generator, state, inc)
        gen.standard_normal(out=draws[row, column:])


def _block_normals(tag: str, seed: int, indices: Sequence[int],
                   sigmas: np.ndarray) -> np.ndarray:
    """``N(0, σ_j)`` draws of samples ``indices``, shape ``(n, len(sigmas))``.

    Row ``k`` equals what ``_rng_for(tag, seed, indices[k])`` yields for
    ``normal(0.0, σ_j)`` called on each column with ``σ_j > 0`` in column
    order, bit for bit; a column with ``σ_j <= 0`` draws nothing and
    holds ``+0.0``.  Every stream steps as ``uint64`` array math and its
    draws take the ziggurat fast path (:func:`_ziggurat_fast`) until one
    is rejected; from that draw on, the row is drawn by
    :func:`_scalar_normals` from the state before it.  Scaling is
    ``0.0 + σ·z`` as in ``normal``, which keeps ``+0.0`` where ``σ·z`` is
    ``-0.0``.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    drawn = sigmas > 0
    z = np.zeros((len(indices), len(sigmas)))
    width = int(drawn.sum())
    if width:
        draws = np.empty((len(indices), width))
        rows = np.arange(len(indices))
        hi, lo, inc_hi, inc_lo = _pcg64_states(tag, seed, indices)
        restarts: list = []
        for j in range(width):
            if not rows.size:
                break
            step = _pcg_step(hi, lo, inc_hi, inc_lo)
            draws[rows, j], fast = _ziggurat_fast(_xsl_rr(*step))
            if not fast.all():
                out = ~fast
                restarts += [(row, j, (s_hi << 64) | s_lo, (i_hi << 64) | i_lo)
                             for row, s_hi, s_lo, i_hi, i_lo in zip(*(
                                 a[out].tolist()
                                 for a in (rows, hi, lo, inc_hi, inc_lo)))]
                rows, inc_hi, inc_lo = rows[fast], inc_hi[fast], inc_lo[fast]
                step = (step[0][fast], step[1][fast])
            hi, lo = step
        if restarts:
            _scalar_normals(draws, restarts)
        z[:, drawn] = draws
    return 0.0 + sigmas * z


@dataclass(frozen=True)
class McVariation:
    """Variation model: lognormal σ per knob (0 disables that axis).

    Attributes
    ----------
    sigma_cell:
        σ of ``ln(cell speed factor)``; one factor per library cell per
        sample, applied to all of the cell's delay *and* slew tables.
    sigma_wire:
        σ of ``ln(wire factor)``; independent factors for each wire's
        total resistance and capacitance per sample.
    """

    sigma_cell: float = 0.05
    sigma_wire: float = 0.10

    def __post_init__(self) -> None:
        require(self.sigma_cell >= 0 and self.sigma_wire >= 0,
                "variation sigmas must be >= 0")


def sample_library(library: dict[str, CharacterizedCell],
                   rng: np.random.Generator,
                   sigma: float) -> dict[str, CharacterizedCell]:
    """One Monte-Carlo draw of the cell library.

    Cells are visited in sorted-name order (one lognormal factor each),
    so the draw sequence — hence the sample — is independent of dict
    insertion order.
    """
    if sigma <= 0:
        return dict(library)
    names = sorted(library)
    factors = np.exp(rng.normal(0.0, sigma, size=len(names))).tolist()
    out: dict[str, CharacterizedCell] = {}
    for name, factor in zip(names, factors):
        entry = library[name]
        arcs = tuple(a.scaled(factor) for a in entry.timing_arcs)
        out[name] = dataclasses.replace(
            entry, arc=arcs[0], arcs=arcs if len(arcs) > 1 else ())
    return out


def sample_wire_specs(wire_specs: dict[str, RcLineSpec],
                      rng: np.random.Generator,
                      sigma: float) -> dict[str, RcLineSpec]:
    """One Monte-Carlo draw of the interconnect (independent R/C factors)."""
    if sigma <= 0 or not wire_specs:
        return dict(wire_specs)
    nets = sorted(wire_specs)
    factors = np.exp(rng.normal(0.0, sigma, size=(len(nets), 2))).tolist()
    out: dict[str, RcLineSpec] = {}
    for net, (f_r, f_c) in zip(nets, factors):
        spec = wire_specs[net]
        out[net] = RcLineSpec(total_r=spec.total_r * f_r,
                              total_c=spec.total_c * f_c,
                              n_segments=spec.n_segments)
    return out


@dataclass(frozen=True)
class _McSpec:
    """Everything a worker needs to solve a block of samples (picklable)."""

    netlist: GateNetlist
    library: dict[str, CharacterizedCell]
    wire_specs: dict[str, RcLineSpec]
    inputs: dict[str, InputSpec]
    required_times: dict[str, float]
    variation: McVariation
    seed: int
    watch: tuple[str, ...]


def _draw_block(spec: _McSpec, indices: Sequence[int]):
    """Per-sample factors of ``indices``: cell → ``(n,)``, net → R, C.

    Each sample draws ``exp(N(0, σ))`` factors from its own stream
    (:func:`_block_normals`) in the order :func:`sample_library` then
    :func:`sample_wire_specs` draw them — one per cell in sorted-name
    order, then ``(R, C)`` per wire in sorted-net order — so a sample's
    factors do not depend on its block.
    """
    cells, nets = sorted(spec.library), sorted(spec.wire_specs)
    var = spec.variation
    sigmas = np.repeat([var.sigma_cell, var.sigma_wire],
                       [len(cells), 2 * len(nets)])
    factors = np.exp(_block_normals("ssta", spec.seed, indices, sigmas))
    cell_f = factors[:, :len(cells)]
    wire_f = factors[:, len(cells):].reshape(len(indices), len(nets), 2)
    scale = {name: cell_f[:, c] for c, name in enumerate(cells)}
    wires = {net: (spec.wire_specs[net].total_r * wire_f[:, w, 0],
                   spec.wire_specs[net].total_c * wire_f[:, w, 1])
             for w, net in enumerate(nets)}
    return scale, wires


def _later(cur, new):
    """:meth:`EdgeTiming.later_of` per sample and edge: ``new`` wins ties."""
    if cur is None:
        return new
    take = new[0] >= cur[0]
    return (np.where(take, new[0], cur[0]), np.where(take, new[1], cur[1]))


def _min(a, b):
    """Python's ``min(a, b)`` per sample: ``b`` only where ``b < a``."""
    return np.where(b < a, b, a)


#: Each edge's row of a net's ``(2, n)`` arrays (0 rise, 1 fall), as a
#: column that broadcasts against a lookup's indices.
_EDGE_ROWS = np.array([[0], [1]])


@dataclass(frozen=True)
class _TablePair:
    """Two NLDM tables looked up as one: row 0 of a ``(2, n)`` slew on
    ``tables[0]``, row 1 on ``tables[1]``.

    Tables on one grid (the usual case) stack their entries into
    ``values`` ``(2, S, L)``, and one :func:`interpolate` call, the body
    of :meth:`NldmTable.lookup`, serves both rows; tables on different
    grids are looked up one row each.  ``signed`` is false
    when every lookup is ``+0.0`` or above: constant (1×1) tables of
    positive entries, whose lookup is an entry times a factor ``>= 0``.
    """

    tables: tuple[NldmTable, NldmTable]
    values: np.ndarray | None
    signed: bool

    @classmethod
    def of(cls, first: NldmTable, second: NldmTable) -> "_TablePair":
        shared = (first.input_slews.tobytes() == second.input_slews.tobytes()
                  and first.loads.tobytes() == second.loads.tobytes())
        values = np.array((first.values, second.values)) if shared else None
        return cls((first, second), values, not (
            values is not None and values.shape[1:] == (1, 1)
            and bool((values > 0).all())))

    def lookup(self, slew: np.ndarray, load, scale: np.ndarray) -> np.ndarray:
        """Both rows' lookups, ``(2, n)``, at one ``load`` (a float, or
        one per sample) and cell factor ``scale`` per sample."""
        first, second = self.tables
        if self.values is None:
            return np.stack([first.lookup(slew[0], load, scale),
                             second.lookup(slew[1], load, scale)])
        if self.values.shape[1:] == (1, 1):
            # interpolate's constant case, by a view (not a fancy index).
            return self.values[:, 0, :1] * scale
        return interpolate(first.input_slews, first.loads, self.values, slew,
                           load, scale, _EDGE_ROWS)


@dataclass(frozen=True)
class _Plan:
    """A sweep's per-net constants, compiled once (:func:`_compile`) and
    shared by every block.

    ``inputs`` names the primary inputs; a block reads their arrival and
    slew from its spec (a value-equal key may differ in a zero's sign).
    ``gates`` holds each driven net in level order as ``(net, cell, load,
    n_segments, arcs)``: the fanout pins' capacitance summed as
    :meth:`StaEngine.net_load` sums it, the wire's segment count (0 for
    an ideal net), and per input pin ``(in_net, inverting, delay, slew)``
    with the delay and slew table pairs (:class:`_TablePair`) ordered by
    input edge.  ``required`` names the nets the backward pass reaches: the
    constrained nets and their transitive fanin.
    """

    inputs: tuple[str, ...]
    gates: tuple[tuple, ...]
    required: frozenset[str]


def _compile(spec: _McSpec, graph: TimingGraph) -> _Plan:
    """The :class:`_Plan` of ``spec``'s design on its compiled ``graph``."""
    library = spec.library
    inputs, gates, pairs = [], [], {}
    for net in graph.levels():
        inst = graph.fanin.get(net)
        if inst is None:
            inputs.append(net)
            continue
        load = sum(library[load_inst.cell].input_capacitance
                   for load_inst, _pin in graph.fanout.get(net, ()))
        wire = spec.wire_specs.get(net)
        arcs = []
        for pin, in_net in inst.inputs:
            arc = library[inst.cell].arc_for(pin)
            if id(arc) not in pairs:
                # Row 0 is the rising input, whose output falls if
                # the arc inverts.
                delay = (arc.cell_rise, arc.cell_fall)
                slew = (arc.rise_transition, arc.fall_transition)
                if arc.inverting:
                    delay, slew = delay[::-1], slew[::-1]
                pairs[id(arc)] = (_TablePair.of(*delay), _TablePair.of(*slew))
            arcs.append((in_net, arc.inverting, *pairs[id(arc)]))
        gates.append((net, inst.cell, load,
                      wire.n_segments if wire is not None else 0,
                      tuple(arcs)))
    required = set(spec.required_times)
    for net, *_, arcs in reversed(gates):
        if net in required:
            required.update(in_net for in_net, *_ in arcs)
    return _Plan(tuple(inputs), tuple(gates), frozenset(required))


@dataclass(frozen=True)
class _Design:
    """A memo key: the netlist by content (a :class:`GateNetlist` is
    mutable), cells by ``id``, wires, inputs and required times by item.
    ``spec`` is not compared; it holds the cells, so no kept id is reused."""

    key: tuple
    spec: _McSpec = field(compare=False)

    @classmethod
    def of(cls, spec: _McSpec) -> "_Design":
        net = spec.netlist
        return cls((tuple(net.instances), tuple(net.primary_inputs),
                    tuple(net.primary_outputs),
                    tuple((name, id(cell))
                          for name, cell in spec.library.items()),
                    *(tuple(d.items()) for d in (
                        spec.wire_specs, spec.inputs, spec.required_times))),
                   spec)


@lru_cache(maxsize=1)
def _compiled(design: _Design) -> tuple[TimingGraph, _Plan]:
    """``design``'s checked graph and plan, kept for the last design swept
    (a repeat compiles nothing; a new design evicts it).  A failed check
    caches nothing; ``lru_cache`` is thread-safe."""
    spec = design.spec
    graph = TimingGraph.build(spec.netlist)
    StaEngine(spec.library, wire_specs=spec.wire_specs).check(graph)
    return graph, _compile(spec, graph)


def _forward(spec: _McSpec, plan: _Plan, indices: Sequence[int]):
    """The forward pass of :func:`_evaluate`: each net's ``(2, n)``
    arrivals and, per net on a required path, its arcs' delays.  Its
    locals — the block's factors, the slews, the last arc's arrays —
    die with its frame, before the slack step allocates."""
    n = len(indices)
    scale, wires = _draw_block(spec, indices)
    pis = {net: spec.inputs.get(net, InputSpec()) for net in plan.inputs}
    arrival = {net: np.full((2, n), pi.arrival) for net, pi in pis.items()}
    slew = {net: np.full((2, n), pi.slew) for net, pi in pis.items()}
    delays = []  # (net, ((in_net, inverting, delay), ...)) on required paths
    for net, cell, load, n_segments, arcs in plan.gates:
        factor = scale[cell]
        wire_delay = 0.0
        if n_segments:
            total_r, total_c = wires[net]
            load = load + total_c
            wire_delay = elmore_delays_line(total_r, total_c, n_segments,
                                            load_c=load)
            wire_slew = (_LN9 * wire_delay).tolist() * 2
        best, kept = None, []
        for in_net, inverting, delay_pair, slew_pair in arcs:
            in_slew = slew[in_net]
            # An ideal net adds 0.0 to the delay and takes hypot(x, 0.0)
            # = |x| of the slew; on a value >= +0.0 neither moves a bit.
            delay = delay_pair.lookup(in_slew, load, factor)
            if n_segments or delay_pair.signed:
                delay += wire_delay
            out_slew = slew_pair.lookup(in_slew, load, factor)
            if n_segments:
                # np.hypot and math.hypot differ in the last bit.
                out_slew = np.fromiter(
                    map(math.hypot, out_slew.ravel().tolist(), wire_slew),
                    float, count=2 * n).reshape(2, n)
            elif slew_pair.signed:
                np.abs(out_slew, out=out_slew)
            at = arrival[in_net] + delay
            if inverting:
                at, out_slew = at[::-1], out_slew[::-1]
            best = _later(best, (at, out_slew))
            kept.append((in_net, inverting, delay))
        arrival[net], slew[net] = best
        if net in plan.required:
            delays.append((net, kept))
    return arrival, delays


def _evaluate(spec: _McSpec, plan: _Plan, indices: Sequence[int]) -> dict:
    """Columns of samples ``indices``: one level-order pass over the block.

    Mirrors :meth:`StaEngine.analyze` (forward arcs, worst-edge merge,
    per-edge backward required pass) operation for operation, with each
    net's arrival, slew and required time one ``(2, len(indices))``
    array — row 0 the rising edge, row 1 the falling — in place of a
    float per edge, so each sample equals the scalar engine's bit for
    bit.  An arc computes both input edges at once, in input-edge order;
    an inverting arc's rows reach the output, and its required times
    the input, through a ``[::-1]`` view.  Nested as
    :attr:`McResult.quantiles`: ``arrival`` (and with required times
    ``slack``) ``{net: arr}``, ``worst_slack`` an array.
    """
    n = len(indices)
    arrival, delays = _forward(spec, plan, indices)

    def worst(net):
        r, f = arrival[net]
        return np.where(r >= f, r, f)

    columns: dict = {"arrival": {net: worst(net) for net in spec.watch}}
    if spec.required_times:
        req = {net: np.full((2, 1), t)
               for net, t in spec.required_times.items()}
        while delays:  # backward, dropping each net's delays once used
            net, kept = delays.pop()
            out = req[net]
            for in_net, inverting, delay in kept:
                req[in_net] = _min(req.get(in_net, math.inf),
                                   (out[::-1] if inverting else out) - delay)
        # Constrained nets in the order StaResult.required holds them:
        # the union of its two edges' (equal) key sets.
        nets = list(set(req) | set(req))
        edge_slack = np.empty((len(nets), 2, n))
        for row, net in zip(edge_slack, nets):
            np.subtract(req[net], arrival[net], out=row)
        slacks = _min(edge_slack[:, 0], edge_slack[:, 1])
        slack = dict(zip(nets, slacks))
        columns["slack"] = {net: slack[net]
                            for net in spec.watch if net in slack}
        columns["worst_slack"] = reduce(_min, slacks)
    return columns


def _block_size(spec: _McSpec, graph: TimingGraph) -> int:
    """Samples per block: as many as :data:`_BLOCK_BYTES` holds at the
    floats :func:`_evaluate` keeps live per sample in its largest phase,
    and at least :data:`_BLOCK`.

    Per sample, the draws hold 3 per factor (one per cell, R and C per
    wire: normals, drawn columns, scaled copy) and 32 for stream state
    and ziggurat temporaries.  Then the factors and each wire's scaled R
    and C stay live beside the forward pass, 4 per net (arrival and slew,
    both edges) and 2 per input pin (an arc's delays, kept for the
    backward pass), or beside the slack step, which has dropped those: 7
    per net (arrival, required time and slack of both edges, the net's
    slack) and the watched arrivals.  Each phase adds 32 for one step's
    temporaries and what the last step leaves live.  With NumPy 2.4 a
    budgeted block peaks at 73–94% of the budget on c17 and a 60-gate
    netlist, wired or not, and at 98% on c17 with a 300-cell library.
    """
    wires, nets = len(spec.wire_specs), len(graph.order)
    factors = len(spec.library) + 2 * wires
    pins = sum(map(len, graph.fanout.values()))
    floats = 32 + max(3 * factors + 32, factors + 2 * wires + max(
        4 * nets + 2 * pins, 7 * nets + len(spec.watch)))
    return max(_BLOCK, _BLOCK_BYTES // (8 * floats))


def _solve_block(b: int, spec: _McSpec, plan: _Plan,
                 blocks: tuple[Sequence[int], ...],
                 journal=None) -> dict:
    """Solve ``blocks[b]`` into columns and journal its rows if asked.

    The caller cuts the blocks and compiles ``spec.netlist`` into
    ``plan`` once per sweep, so neither depends on module state in a
    worker process.  Module-level (not a closure) so
    :func:`repro.exec.run_indexed` can pickle it, the plan included, to
    worker processes; the journal pickles without its file handle.
    Journal first, merge after: a ``kill -9`` mid-sweep leaves a sample
    either fully recorded or recomputed on resume — never half-counted.
    """
    columns = _evaluate(spec, plan, blocks[b])
    if journal is not None:
        for row in _rows(columns, blocks[b]):
            journal.record(row["index"], row)
    return columns


def _rows(columns: dict, indices: Sequence[int]) -> list[dict]:
    """Row dicts of ``columns``' samples ``indices``: ``"index"``, then
    each column's Python float (``{net: float}``, or a list for 2-D)."""
    lists = {key: ({net: v.tolist() for net, v in col.items()}
                   if isinstance(col, dict) else col.tolist())
             for key, col in columns.items()}
    rows = []
    for k, i in enumerate(indices):
        row: dict = {"index": i}
        for key, col in lists.items():
            row[key] = ({net: v[k] for net, v in col.items()}
                        if isinstance(col, dict) else col[k])
        rows.append(row)
    return rows


def _put(columns: dict, at, values: dict) -> None:
    """Write ``values`` (a row or block columns) into ``columns`` at ``at``."""
    for key, col in columns.items():
        if isinstance(col, dict):
            for net, arr in col.items():
                arr[at] = values[key][net]
        else:
            col[at] = values[key]


#: The quantiles every sweep reports, as :func:`_summarise` keys them.
_QUANTILES = {"q05": 0.05, "q50": 0.5, "q95": 0.95}


def _summarise(columns: dict) -> dict:
    """5/50/95 quantiles of every column, in ``columns``' nesting.

    One sort of the stacked columns, then :func:`numpy.quantile`'s
    'linear' interpolation as NumPy computes it: ``v = (n-1)·q`` lies
    between the sorted values ``a`` at ``lo = floor(v)`` and ``b`` at
    ``lo + 1`` (both the last value, with ``lo = -1``, where ``v >=
    n-1``); with ``g = v - lo`` and ``d = b - a`` the quantile is ``b -
    d·(1-g)`` where ``g >= 0.5`` and ``a + d·g`` below, and NaN in a
    column holding NaN.  These are the values of per-column,
    per-quantile calls bit for bit, except that where a column holds
    both ``-0.0`` and ``0.0`` the sign of a zero quantile follows the
    order of the tied zeros, which NumPy's partition leaves open (its
    own stacked and per-quantile calls disagree there too).
    """
    leaves = [(key, net) for key, col in columns.items()
              for net in (col if isinstance(col, dict) else (None,))]
    matrix = np.sort([columns[key] if net is None else columns[key][net]
                      for key, net in leaves], axis=1)
    n = matrix.shape[1]
    v = (n - 1) * np.array(list(_QUANTILES.values()))
    lo = np.floor(v).astype(np.intp)
    lo[v >= n - 1] = -1
    hi = np.where(lo == -1, -1, lo + 1)
    g = v - lo
    a, b = matrix[:, lo], matrix[:, hi]
    d = b - a
    table = np.where(g >= 0.5, b - d * (1 - g), a + d * g)
    table[np.isnan(matrix[:, -1])] = np.nan
    out: dict = {key: {} for key in columns}
    for (key, net), values in zip(leaves, table.tolist()):
        q = dict(zip(_QUANTILES, values))
        if net is None:
            out[key] = q
        else:
            out[key][net] = q
    return out


@dataclass(eq=False)
class McResult:
    """A Monte-Carlo sweep: per-sample columns plus quantile summaries.

    ``quantiles`` maps metric name (``"arrival"``, ``"slack"``) to
    ``{net: {"q05": ..., "q50": ..., "q95": ...}}``; scalar metrics
    (``"worst_slack"``) map straight to their quantile dict.
    ``columns`` nests the same way, with index-ordered sample arrays.
    """

    samples: int
    seed: int
    columns: dict
    quantiles: dict
    diag: dict = field(default_factory=dict)

    @cached_property
    def rows(self) -> list[dict]:
        """Per-sample dicts built from :attr:`columns` on first access."""
        return _rows(self.columns, range(self.samples))

    def to_dict(self) -> dict:
        """JSON-ready payload (CLI ``--json``, service results)."""
        return {"samples": self.samples, "seed": self.seed,
                "quantiles": self.quantiles, "rows": self.rows,
                "diag": dict(self.diag)}


def run_sta_monte_carlo(
    netlist: GateNetlist,
    library: dict[str, CharacterizedCell],
    wire_specs: dict[str, RcLineSpec] | None = None,
    inputs: dict[str, InputSpec] | None = None,
    required_times: dict[str, float] | None = None,
    variation: McVariation = McVariation(),
    samples: int = 32,
    seed: int = 0,
    watch: list[str] | None = None,
    execution: ExecutionConfig | None = None,
    on_sample: "Callable[[dict], None] | None" = None,
    journal: "bool | None" = None,
) -> McResult:
    """Sweep process-variation samples through the STA engine.

    Parameters
    ----------
    netlist, library, wire_specs, inputs, required_times:
        Exactly as :meth:`StaEngine.analyze` — the nominal design.
    variation:
        The σ model; each sample scales the library and wires by its own
        lognormal draws.
    samples / seed:
        Sweep size and base seed (``>= 0``).
    watch:
        Nets whose arrival/slack distributions are recorded (default:
        the primary outputs); a net the netlist lacks raises
        ``ValueError`` before any block runs.
    execution:
        Worker configuration for :func:`repro.exec.run_indexed`, which
        receives one index per block of :func:`_block_size` samples (so
        ``diag["jobs"]`` counts blocks); results are bit-identical
        across worker counts and block sizes.
    on_sample:
        Optional streaming callback, called with each per-sample row in
        index order after the sweep completes (the service job uses this
        to emit rows).
    journal:
        Crash-safe resume through the write-ahead run journal
        (:mod:`repro.exec.journal`): each block's samples are recorded
        before the block returns, and a rerun of the identical sweep resumes at the
        first unfinished one, with bit-identical quantiles.  ``None``
        (default) follows the ``REPRO_JOURNAL`` knob; needs a
        configured result store.

    Returns
    -------
    McResult
    """
    n, base_seed = int(samples), int(seed)
    require(n >= 1, "need at least one sample")
    require(base_seed >= 0, "seed must be >= 0")
    watch_nets = tuple(watch if watch is not None else netlist.primary_outputs)
    require(len(watch_nets) >= 1, "no nets to watch (no primary outputs?)")
    spec = _McSpec(netlist=netlist, library=dict(library),
                   wire_specs=dict(wire_specs or {}),
                   inputs=dict(inputs or {}),
                   required_times=dict(required_times or {}),
                   variation=variation, seed=base_seed, watch=watch_nets)
    # Compile once per design and fail fast, in-process, on a bad design
    # or watch list (a broken design reports its own error first).
    graph, plan = _compiled(_Design.of(spec))
    unknown = sorted(set(watch_nets).difference(graph.order))
    require(not unknown, f"unknown watch net(s) {unknown}")

    diag: dict = {}
    jr = journal_for("ssta-mc", (spec, n), n,
                     execution=execution, enabled=journal)
    done = jr.completed() if jr is not None else {}
    # A fresh sweep's blocks are ranges: cheap to cut and to pickle.
    todo = tuple(sorted(set(range(n)).difference(done))) if done else range(n)
    size = _block_size(spec, graph)
    blocks = tuple(todo[k:k + size] for k in range(0, len(todo), size))
    solved = run_indexed(
        partial(_solve_block, spec=spec, plan=plan,
                blocks=blocks, journal=jr),
        len(blocks), execution=execution, diag=diag)
    if len(solved) == 1 and not done:
        columns = solved[0]  # the one block holds samples 0..n-1 in order
    else:
        # Index-ordered columns, laid out like any block's (or resumed
        # row's).
        like = solved[0] if solved else next(iter(done.values()))
        columns = {key: ({net: np.empty(n) for net in like[key]}
                         if isinstance(like[key], dict) else np.empty(n))
                   for key in like if key != "index"}
        for block, block_columns in zip(blocks, solved):
            _put(columns, list(block), block_columns)
        for i, row in done.items():
            _put(columns, i, row)
    if jr is not None:
        diag["journal"] = {"resumed": len(done), "computed": len(todo)}
        jr.finish()
    result = McResult(samples=n, seed=base_seed, columns=columns,
                      quantiles=_summarise(columns), diag=diag)
    if on_sample is not None:
        for row in result.rows:
            on_sample(row)
    return result


def run_noise_monte_carlo(
    stages,
    input_ramp,
    sigma_align: float = 20e-12,
    samples: int = 32,
    seed: int = 0,
    technique=None,
    dt: float = 2e-12,
    settle_margin: float = 800e-12,
    execution: ExecutionConfig | None = None,
    on_sample: "Callable[[dict], None] | None" = None,
    journal: "bool | None" = None,
) -> McResult:
    """Monte-Carlo over aggressor alignments through noise-aware STA.

    Each sample shifts every aggressor's ``transition_start`` by its own
    normal draw (σ = ``sigma_align``) and re-propagates the path with
    :func:`~repro.sta.noise_aware.propagate_path`.  All samples share one
    pinned simulation window (``window_end`` = the latest window any
    sample needs), so the alignment-independent quiet reference keeps a
    single cache/store key for the whole sweep: with a configured result
    store, a warm rerun performs zero transient solves.

    Samples run sequentially in-process — the parallelism (and the
    memoisation) lives inside ``propagate_path``'s execution layer — and
    each draws from its own indexed stream, so results are independent
    of the execution configuration.

    Returns an :class:`McResult` whose rows carry the path-output
    ``arrival`` (keyed ``"out"``) per sample.
    """
    from .noise_aware import propagate_path  # cycle-free import

    n, base_seed = int(samples), int(seed)
    require(n >= 1, "need at least one sample")
    require(base_seed >= 0, "seed must be >= 0")
    require(sigma_align >= 0, "sigma_align must be >= 0")
    stages = list(stages)
    require(len(stages) >= 1, "need at least one stage")

    # Pre-draw every sample's offsets so the common window end covers the
    # whole sweep (the draw order is fixed: stage-major, aggressor-minor).
    aggressors = [agg for stage in stages for agg in stage.aggressors]
    offsets = _block_normals("noise-mc", base_seed, range(n),
                             np.full(len(aggressors), float(sigma_align)))
    offset_rows: list[list[float]] = offsets.tolist()
    window_end = 0.0
    for per_sample in offset_rows:
        for agg, offset in zip(aggressors, per_sample):
            window_end = max(window_end, agg.transition_start + offset
                             + agg.slew / 0.8 + settle_margin)

    jr = journal_for(
        "noise-mc",
        (tuple(stages), input_ramp, float(sigma_align), n, base_seed,
         getattr(technique, "name", None), float(dt), float(settle_margin)),
        n, execution=execution, enabled=journal)
    done = jr.completed() if jr is not None else {}

    arrival = np.empty(n)
    for i in range(n):
        row = done.get(i)
        if row is None:
            shifts = iter(offset_rows[i])
            jittered = [dataclasses.replace(stage, aggressors=tuple(
                dataclasses.replace(agg, transition_start=agg.transition_start
                                    + next(shifts))
                for agg in stage.aggressors)) for stage in stages]
            timings = propagate_path(
                jittered, input_ramp, technique=technique, dt=dt,
                settle_margin=settle_margin, execution=execution,
                window_end=window_end if sigma_align > 0 else None)
            row = {"index": i,
                   "arrival": {"out": timings[-1].output_arrival},
                   "offsets": offset_rows[i]}
            if jr is not None:
                jr.record(i, row)
        arrival[i] = row["arrival"]["out"]
        if on_sample is not None:
            on_sample(row)

    diag: dict = {"window_end": window_end}
    if jr is not None:
        diag["journal"] = {"resumed": len(done), "computed": n - len(done)}
        jr.finish()
    columns = {"arrival": {"out": arrival}, "offsets": offsets}
    return McResult(samples=n, seed=base_seed, columns=columns,
                    quantiles=_summarise({"arrival": columns["arrival"]}),
                    diag=diag)
