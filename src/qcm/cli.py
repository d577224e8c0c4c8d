"""Command-line front end: deterministic CSV/JSON tables for every protocol.

Commands:

    check        randomized cross-validation of every closed form against
                 the independent oracles; exit 0 only if all suites pass
    wstate       trapped-state amplitudes and classification per qubit count
    anticlone    anti-cloning fidelity curves versus qubit count
    decoherence  no-click fidelity and survival probability versus qubit count
    scan         coupling-ratio sweep at fixed M plus the special ratios

Identical invocations (including --seed) produce byte-identical output,
rows in a fixed sorted order.  CSV prints floats with 17 significant digits
('%.17g'); JSON prints ``json.dumps``' shortest repr that round-trips, so
r = 1 + sqrt(2) reads 2.4142135623730949 in CSV and 2.414213562373095 in
JSON.  Each CSV column is classified once, as numbers or text
(``_printed``).  A CSV table with KERNEL_MIN_CELLS float cells or more takes
its float cells from one vectorised numpy kernel (``_float_cells``),
_BLOCK_CELLS rows of one column at a time.  The kernel prints the cells
that '%g' writes in fixed notation; a smaller table, and each e-notation
cell, zero, nan or inf, goes through '%.17g' itself, with identical bytes.
Its integer columns print from their own digits (``_int_cells``).  Each
column becomes NUL-padded byte cells, 24 bytes for a float, else as wide
as its widest cell; the table is those cells side by side, with its commas
and newlines, and its padding is stripped once.
Exit codes: 0 success, 1 tolerance or assertion breach, 2 configuration
error (including a qubit count too large to allocate).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from .decoherence import (
    DEFAULT_GAMMA_DECAY,
    DEFAULT_KAPPA,
    DEFAULT_SCHEMES,
    conditional_amplitudes,
    decay_robustness_scan,
    renormalized_trapping_time,
)
from .model import (
    ConfigurationError,
    _check_generators,
    _check_registers,
    _generators,
    check_count,
    check_integer,
    check_odd_index,
    replay_flagged,
    sorted_distinct,
)
from .propagator import (
    _check_propagators,
    _kernel_terms,
    _propagators,
    expm_hermitian,
    rk4_propagate_many,
)
from .protocols import (
    CouplingScheme,
    IDENTICAL,
    SCHEME_TAGS,
    W_MINUS,
    W_PLUS,
    W_PRIME,
    _named_fidelities,
    _scheme_rows,
    _trapped_amplitudes,
    anticlone_fidelities,
    fidelity_curve,
    generate_w_state,
    optimize_coupling_ratio,
    run_anticlone,
    w_state_columns,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2

#: closed form vs oracle tolerances, also pinned by the acceptance tests
CHECK_TOLERANCES = {
    "unitarity": 1e-10,
    "closed_vs_expm": 1e-10,
    "group_property": 1e-10,
    "closed_vs_rk4": 1e-8,
    "conditional_vs_rk4": 1e-8,
}

#: step sizes for the RK4 legs of `check`; the conditional suite integrates
#: over up to three trapping periods, where 5e-4 still leaves the integrator
#: error two orders below its 1e-8 budget
RK4_DT = 1e-4
CONDITIONAL_DT = 5e-4


class CheckFailure(Exception):
    """A cross-validation or internal consistency assertion failed."""


def qubit_counts(args: argparse.Namespace, default: tuple[int, int] | None = None) -> np.ndarray:
    """The checked qubit counts of --m or --m-range, else of ``default``, as an int64 column."""
    if args.m is not None and args.m_range is not None:
        raise ConfigurationError("give either --m or --m-range, not both")
    if args.m is not None:
        lo = hi = check_count("m", args.m, 2)
    elif args.m_range is not None:
        lo, hi = _parse_m_range(args.m_range)
    elif default is not None:
        lo, hi = default
    else:
        raise ConfigurationError("a qubit count is required (--m or --m-range)")
    try:
        return np.arange(lo, hi + 1, dtype=np.int64)
    except MemoryError:
        count = f"--m-range {args.m_range!r} spans {hi - lo + 1} qubit counts"
        raise ConfigurationError(f"{count}, too many to list in memory") from None


def resolve_scheme(args: argparse.Namespace) -> CouplingScheme:
    """The coupling scheme of --scheme or --r; exactly one must be given."""
    if args.scheme is not None and args.r is not None:
        raise ConfigurationError("give either --scheme or --r, not both")
    if args.r is not None:
        return CouplingScheme.custom(args.r)
    if args.scheme is not None:
        return CouplingScheme(args.scheme)
    raise ConfigurationError("a coupling scheme is required (--scheme or --r)")


# ---------------------------------------------------------------------------
# output formatting


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


#: a CSV table with fewer float64 cells than this formats every cell through
#: one %-template.  Measured on a 2-vCPU x86-64 host (Python 3.11, numpy
#: 2.4): the 3998-row `decoherence --m-range 2:2000` table (four float
#: columns, 15992 float cells) takes 7.7-8.6 ms on the template and 2.3-2.4
#: ms on the kernel, about 0.35 us saved a cell.  But each ``_float_cells``
#: call costs 55-80 us on 5 rows (290-390 us on 3998), so a 5-row table of
#: seven float columns takes 0.43-0.47 ms on the kernel against about 20 us
#: on the template; and ``_kernel_tables`` takes 1.9-2.7 ms to build in a
#: fresh process (0.9-1.3 ms to rebuild, about 0.5 ms of it the layout
#: table).  So the kernel pays only on large tables
KERNEL_MIN_CELLS = 5000
#: rows of one float column per ``_float_cells`` call, so that the kernel's
#: arrays stay in cache.  Measured as above on the 99999-row `wstate
#: --m-range 2:100000 --scheme w_minus` table (four float columns): about
#: 98-106 ms in chunks of 2048 to 16384 rows, and 105-109 ms with each
#: column in one call; the traced peak memory is 46.2 MB at every size, as
#: the table's text dominates it.  No benchmark workload prints a float
#: column longer than 3998 rows, so there this never splits a column
_BLOCK_CELLS = 4096


@functools.cache
def _kernel_tables() -> SimpleNamespace:
    """The kernel's lookup tables, built with numpy on first use.  A cell's
    digits field is 24 ASCII bytes, seven '0's then its 17 digits, held as
    three little-endian uint64 words.

    - quads: the four ASCII digits of 0..9999, one uint32 each;
    - zeros: the trailing zeros of each of those;
    - powers[:, k]: 10**k and its Dekker halves, for k from 0 to 22: the
      scales 10**(16 - e) of the cells '%g' prints in fixed notation, whose
      rounded exponents e run from -4 to 16, each an exact double (5**22 <
      2**53);
    - layout[:, (sign*25 + p)*25 + q]: the three masks of a cell whose
      fraction is the field's bytes p..q-1, as three words each: its integer
      part (bytes min(p - 1, 7)..p-1) moved one byte down, its fraction, and
      its marks, the '-' just before the integer part and the '.' at byte
      p - 1, where the cell has them.

    The build uses int64 arithmetic, as the kernel does: each further numpy
    routine or dtype maps more of numpy's code into memory.
    """
    d = np.arange(10**4)
    thousands, rest = np.divmod(d, 1000)
    hundreds, rest = np.divmod(rest, 100)
    tens, units = np.divmod(rest, 10)
    quads = np.empty((10**4, 4), np.int64)
    for i, digit in enumerate((thousands, hundreds, tens, units)):
        quads[:, i] = digit + ord("0")
    byte = np.arange(24)
    sign, rest = np.divmod(np.arange(2 * 25 * 25)[:, None], 25 * 25)
    p, q = np.divmod(rest, 25)
    start = p - 1 - np.maximum(p - 8, 0)
    layout = np.empty((2 * 25 * 25, 72), np.int64)
    layout[:, :24] = 255 * ((byte >= start - 1) & (byte < p - 1))
    layout[:, 24:48] = 255 * ((byte >= p) & (byte < q))
    layout[:, 48:] = ord("-") * (sign & (byte == start - 2))
    layout[:, 48:] += ord(".") * ((q > p) & (byte == p - 1))
    powers = np.array([float(10**k) for k in range(23)])
    return SimpleNamespace(
        quads=quads.astype(np.uint8).view("<u4").ravel(),
        zeros=sum(np.divmod(d, 10**k)[1] == 0 for k in (1, 2, 3, 4)),
        powers=np.array([powers, *_split(powers)]),
        layout=layout.astype(np.uint8).view("<u8").reshape(-1, 3, 3).transpose(1, 0, 2).copy(),
    )


def _split(x):
    """Dekker's split of x, a float or each entry of an array, into two
    halves of 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    big = c - (c - x)
    return big, x - big


def _scaled(a: np.ndarray, e: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as p + t, exactly: p = a * 10**(16 - e) rounded, and
    t its rounding error, from the Dekker halves of both factors."""
    hi, hh, hl = np.take(powers, 16 - e, axis=1)
    p = a * hi
    ah, al = _split(a)
    return p, ((ah * hh - p) + ah * hl + al * hh) + al * hl


def _significands(x: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, e, exact) of the float64 column x: each |x| rounded to 17 significant
    digits is N * 10**(e - 16), with N in [10**16, 10**17), where ``exact``.

    A finite |x| in [1e-5, 1e17) has N = round(|x| * 10**(16 - e)) from
    ``_scaled``: p >= 2**53 is an even integer, so the error term t alone
    rounds it, and ``np.rint`` breaks a tie in t to even, as '%.17g' breaks
    one in p + t.  e, estimated from log10 and at most 16, moves by one
    where the scaled value p + t leaves [10**16, 10**17); as t is exact, it
    then lies in that decade, and N in [10**16, 10**17].  ``exact`` is False
    for any other |x|, and where the rounded e lies outside -4..16, so that
    '%g' prints the cell in e-notation.
    """
    a = np.abs(x)
    exact = (a >= 1e-5) & (a < 1e17)  # False on nan
    a = np.where(exact, a, 1.0)
    # at most 16, or np.take would wrap the index 16 - e = -1 round to 10**22
    e = np.minimum(np.floor(np.log10(a)), 16.0).astype(np.int64)
    p, t = _scaled(a, e, powers)
    shift = ((p >= 1e17) & ((p > 1e17) | (t >= 0.0))).astype(np.int64)
    shift -= (p <= 1e16) & ((p < 1e16) | (t < 0.0))
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        p[moved], t[moved] = _scaled(a[moved], e[moved], powers)
    digits = p.astype(np.int64) + np.rint(t).astype(np.int64)
    top = digits == 10**17  # rounded up into the next decade
    digits[top] = 10**16
    e += top
    exact &= (e >= -4) & (e <= 16)
    return digits, e, exact


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each entry v of the float64 column x, as a (rows, 24)
    uint8 array of ASCII cells, padded with NULs anywhere inside.

    The digits field of ``_significands``' N (``_kernel_tables``) gives the
    cell: its integer part one byte down, after the sign, then the point and
    the fraction without its trailing zeros.  A value below 1 (e from -4 to
    -1) takes its integer part and the fraction's leading zeros from the
    field's seven '0's.  A cell that ``_significands`` does not mark exact
    (zero, e-notation, nan or inf) takes '%.17g' itself, at most 24
    characters.
    """
    tables = _kernel_tables()
    digits, e, exact = _significands(x, tables.powers)
    # the 4-digit groups of the field, one row each: '0000', '000d', then four
    # of 'dddd'; each remainder by product and difference, as numpy
    # vectorises floor division by a scalar but not divmod
    groups = np.zeros((6, x.size), np.int64)
    np.floor_divide(digits, 10**8, out=groups[3])
    np.subtract(digits, groups[3] * 10**8, out=groups[5])
    np.floor_divide(groups[3::2], 10**4, out=groups[2::2])
    groups[3::2] -= groups[2::2] * 10**4
    np.floor_divide(groups[2], 10**4, out=groups[1])
    groups[2] -= groups[1] * 10**4
    field = np.take(tables.quads, groups.T).view(np.uint64)
    tail = tables.zeros[groups[5]]  # N's trailing zeros, group by group
    rows = np.flatnonzero(groups[5] == 0)
    for group in groups[4:1:-1]:
        if not rows.size:
            break
        tail[rows] += tables.zeros[group[rows]]
        rows = rows[group[rows] == 0]
    point = np.where(exact, e + 8, 8)  # the field's first fraction byte
    key = (np.signbit(x) * 25 + point) * 25 + np.maximum(24 - tail, point)
    down, fraction, marks = np.take(tables.layout, key, axis=1)
    # the field one byte down; a cell's last byte takes the next cell's first,
    # which ``down`` always masks off
    words = field.ravel()
    shifted = words >> 8
    shifted[:-1] |= words[1:] << 56
    cells = (shifted.reshape(field.shape) & down | field & fraction | marks).view(np.uint8)
    slow = np.flatnonzero(~exact)
    if slow.size:
        text = "".join([("%.17g" % v).ljust(24, "\0") for v in x[slow].tolist()])
        cells[slow] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)
    return cells


def _int_cells(column: np.ndarray) -> np.ndarray:
    """``str`` of each entry of an integer column within 2**53 of zero, as a
    (rows, width) uint8 array of ASCII cells right-aligned in NULs, width
    the widest cell's.  Each entry's own 4-digit groups index the kernel's
    ``quads``; no float, log10 or trailing-zero count enters."""
    width = max(len(str(column.min())), len(str(column.max())))
    n = -(-width // 4)  # 4-digit groups, a sign included
    count = rest = np.abs(column.astype(np.int64))
    groups = np.empty((n, count.size), np.int64)
    for j in range(n - 1, -1, -1):
        high = rest // 10**4
        groups[j] = rest - high * 10**4
        rest = high
    cells = np.take(_kernel_tables().quads, groups.T).view(np.uint8)
    # the leading zeros become NULs, and a '-' goes just before the first digit
    lead = 4 * n - 1 - np.searchsorted(10 ** np.arange(1, 17), count, side="right")
    keep = (np.arange(4 * n) >= np.arange(4 * n)[:, None]).astype(np.uint8) * 255
    cells &= np.take(keep, lead, axis=0)
    negative = np.flatnonzero(column < 0)
    cells[negative, lead[negative] - 1] = ord("-")
    return cells[:, 4 * n - width :]


def _printed(column):
    """How one CSV column prints, for both routes: a 1-D float64 array, or a
    1-D integer array within 2**53 of zero, whose digits ``_int_cells`` takes
    in int64, stays a number column; any other column becomes its text
    cells, ``format_value``'s."""
    if isinstance(column, np.ndarray):
        if column.ndim == 1 and column.dtype == np.float64:
            return column
        if column.ndim == 1 and column.dtype.kind in "iu" and (
            -(2**53) <= column.min(initial=0) and column.max(initial=0) <= 2**53
        ):
            return column
        column = column.tolist()
    return column if set(map(type, column)) <= {str} else list(map(format_value, column))


def _byte_column(cells) -> np.ndarray | None:
    """Text cells as a (rows, width) uint8 array, NUL-padded; None where the
    text is not ASCII or holds a NUL, which the padding would lose."""
    values = dict.fromkeys(cells)
    text = "".join(values)
    if not text.isascii() or "\0" in text:
        return None
    width = max(map(len, values))
    padded = {v: v.ljust(width, "\0").encode() for v in values}
    packed = b"".join(map(padded.__getitem__, cells))
    return np.frombuffer(packed, np.uint8).reshape(len(cells), width)


def _csv_text(headers: list[str], columns: list) -> str:
    """The CSV text of a table, each column classified once by ``_printed``.
    With KERNEL_MIN_CELLS float64 cells or more, the text columns become
    byte cells (``_byte_column``) first, so that a refused one costs no
    float work, and ``_kernel_text`` puts the table together.  Otherwise,
    or where ``_byte_column`` refuses a text column, every cell goes
    through one %-template ('%.17g' on a float column, '%s' on any other).
    Both give the same bytes."""
    rows = len(columns[0]) if columns else 0
    columns = [_printed(c) for c in columns]
    floats = sum(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns)
    if rows > 0 and rows * floats >= KERNEL_MIN_CELLS and sys.byteorder == "little":
        cells = [c if isinstance(c, np.ndarray) else _byte_column(c) for c in columns]
        if all(c is not None for c in cells):
            return _kernel_text(headers, cells)
    specs = [
        "%.17g" if isinstance(c, np.ndarray) and c.dtype.kind == "f" else "%s" for c in columns
    ]
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines = [",".join(headers)]
    lines += map(",".join(specs).__mod__, zip(*cells))
    return "\n".join(lines) + "\n"


def _kernel_text(headers: list[str], columns: list) -> str:
    """``_csv_text`` of number columns and the byte cells of text columns.
    Each column becomes its own (rows, width) NUL-padded uint8 cells: a
    float column through ``_float_cells``, _BLOCK_CELLS rows at a time, an
    integer column through ``_int_cells``.  The table is those cells side by
    side, a comma between two and a newline after the last, and its NULs
    are stripped once."""
    rows = len(columns[0])
    comma, newline = (np.full((rows, 1), ord(c), np.uint8) for c in ",\n")
    parts = []
    for cells in columns:
        if cells.dtype == np.float64:
            blocks = range(0, rows, _BLOCK_CELLS)
            cells = np.concatenate([_float_cells(cells[i : i + _BLOCK_CELLS]) for i in blocks])
        elif cells.ndim == 1:
            cells = _int_cells(cells)
        parts += [cells, comma]
    parts[-1] = newline
    text = np.concatenate(parts, axis=1).tobytes()
    del parts  # the cells, once the table holds them
    return ",".join(headers) + "\n" + text.translate(None, b"\0").decode()


def write_table(headers: list[str], columns: list, args: argparse.Namespace):
    """Emit columns (one sequence or array per header, of equal lengths) as
    CSV (fixed header) or a JSON array of row objects.  A header without its
    column, or a column of another length, raises ConfigurationError: both
    routes would drop rows or cells silently."""
    lengths = [len(c) for c in columns]
    if len(headers) != len(columns) or len(set(lengths)) > 1:
        raise ConfigurationError(
            f"a table needs one column per header, all of one length: got {len(headers)} "
            f"headers and columns of lengths {lengths}"
        )
    if args.format == "json":
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        payload = [dict(zip(headers, row)) for row in zip(*cells)]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _csv_text(headers, columns)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# check: randomized oracle-equivalence suites


def _closed_stacks(m: np.ndarray, g: np.ndarray, t: np.ndarray, inject_fault: str | None):
    """Every trial's generator (trials, 17, 17) and checked closed-form propagators
    (n, trials, 17, 17) at its times t (trials, n), with the injected fault if any.
    Row g[i] ends with trial i's m[i] couplings, so a trial's block is the last
    m[i] + 1 rows and columns: its qubits, then the photon.  Each suite checks
    the generators where it uses them, so that no block is checked twice."""
    h = _generators(g)
    omega = _check_registers([row[16 - count :] for row, count in zip(g, m.tolist())])
    omega2 = np.repeat([w * w for w in omega], t.shape[1])
    # the suites draw their times in [0, 20), so the kernel's columns need no check
    dark, qubit, damped_sinc, photon = _kernel_terms(omega2, 0.0, 0.0, t.reshape(-1))
    kernel = [np.reshape(c, t.shape).T for c in (dark, qubit, -1j * damped_sinc, photon)]
    u = _propagators(np.broadcast_to(g, (t.shape[1], *g.shape)), *kernel)
    _check_propagators(u)
    if inject_fault == "unitarity_sign":
        u[..., :16, :16] *= 2.0 * np.eye(16) - 1.0  # flip the off-diagonal qubit block
    return h, u


def _rk4_blocks(h: np.ndarray, states: np.ndarray, m: np.ndarray, t, dt: float) -> np.ndarray:
    """RK4 of each trial's block of h on its m[i] + 1 first states, in trial order."""
    counts = m.tolist()
    blocks = [matrix[-c - 1 :, -c - 1 :] for matrix, c in zip(h, counts)]
    vectors = [row[: c + 1] for row, c in zip(states, counts)]
    return np.concatenate(rk4_propagate_many(blocks, vectors, t, dt=dt))


def _matrix_suites(trials: int, rng, inject_fault: str | None) -> dict[str, float]:
    """Unitarity, closed-vs-eigendecomposition and group-property defects."""
    m, g, t = np.zeros(trials, np.int64), np.zeros((trials, 16)), np.zeros((trials, 3))
    for i in range(trials):
        m[i] = count = rng.integers(1, 17)
        g[i, 16 - count :] = rng.uniform(0.25, 2.0, size=count)
        t[i, :2] = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
    t[:, 2] = t[:, 0] + t[:, 1]
    h, u = _closed_stacks(m, g, t, inject_fault)
    worst = {"unitarity": 0.0, "closed_vs_expm": 0.0, "group_property": 0.0}
    # matrix products and eigh on same-shape stacks only: zero-padding would
    # change their summation order, hence their bits
    for count in sorted_distinct(m).tolist():
        idx, block = np.flatnonzero(m == count), slice(-count - 1, None)
        u1, u2, u12 = u[:, idx, block, block]
        # expm_hermitian checks each generator block it is given
        defects = {
            "unitarity": np.swapaxes(u1.conj(), -1, -2) @ u1 - np.eye(count + 1),
            "closed_vs_expm": u1 - expm_hermitian(h[idx, block, block], t[idx, 0]),
            "group_property": u1 @ u2 - u12,
        }
        for suite, defect in defects.items():
            worst[suite] = max(worst[suite], float(np.max(np.abs(defect))))
    return worst


def _rk4_suite(trials: int, rng, inject_fault: str | None) -> float:
    """Closed-form propagation vs RK4 integration on random block states."""
    m, g, t = np.zeros(trials, np.int64), np.zeros((trials, 16)), np.zeros(trials)
    states, closed = np.zeros((2, trials, 17), dtype=complex)
    for i in range(trials):
        m[i] = count = rng.integers(1, 17)
        g[i, 16 - count :] = rng.uniform(0.25, 2.0, size=count)
        t[i] = rng.uniform(0.0, 1.0)
        states.real[i, : count + 1] = rng.normal(size=count + 1)
        states.imag[i, : count + 1] = rng.normal(size=count + 1)
    h, (u,) = _closed_stacks(m, g, t[:, None], inject_fault)
    _check_generators(h, "hermitian")
    for state, count in zip(states, m.tolist()):
        state[: count + 1] /= np.linalg.norm(state[: count + 1])
    for count in sorted_distinct(m).tolist():
        idx, block = np.flatnonzero(m == count), slice(-count - 1, None)
        closed[idx, : count + 1] = (u[idx, block, block] @ states[idx, : count + 1, None])[..., 0]
    integrated = _rk4_blocks(h, states, m, t, RK4_DT)
    return float(np.max(np.abs(closed[np.arange(17) <= m[:, None]] - integrated)))


def _conditional_suite(trials: int, rng) -> float:
    """Closed-form conditional amplitudes vs RK4 under the dissipative generator."""
    m, (r, gamma_decay, kappa, share) = np.zeros(trials, np.int64), np.zeros((4, trials))
    for i in range(trials):
        m[i] = rng.integers(2, 13)
        r[i] = rng.uniform(0.05, 6.0)
        gamma_decay[i] = rng.uniform(0.0, 0.1)
        kappa[i] = rng.uniform(0.0, 0.1)
        # rng.uniform(0.0, 3.0 * tau_c) is 0.0 + 3.0 * tau_c * rng.random()
        share[i] = rng.random()
    params = list(zip(m.tolist(), r.tolist(), gamma_decay.tolist(), kappa.tolist()))
    t = 3.0 * np.array([renormalized_trapping_time(*p) for p in params]) * share
    # star registers (r, 1, ..., 1), zero-padded in front to 12 qubits
    star = (np.arange(12) >= 12 - m[:, None]).astype(float)
    star[np.arange(trials), 12 - m] = r
    _check_registers([row[12 - count :] for row, count in zip(star, m.tolist())])
    h = _generators(star, np.where(np.arange(13) < 12, gamma_decay[:, None], kappa[:, None]))
    _check_generators(h, "dissipative")
    excited = np.eye(1, 13, dtype=complex).repeat(trials, axis=0)  # the input qubit
    integrated = _rk4_blocks(h, excited, m, t, CONDITIONAL_DT)
    amplitudes = map(conditional_amplitudes, *zip(*params), t.tolist())
    # each trial's block in trial order: b1, b on the M - 1 partners, the photon
    predicted = [[a.b1, *[a.b] * (a.m - 1), a.b_photon] for a in amplitudes]
    return float(np.max(np.abs(np.concatenate(predicted) - integrated)))


def run_check_suites(
    trials: int, seed: int, inject_fault: str | None = None
) -> list[dict]:
    """Run every cross-validation suite; one result row per suite."""
    trials = check_count("trials", trials, 0)
    rng = np.random.default_rng(check_integer("seed", seed, 0))  # no cap: numpy takes any size
    rows = []
    if trials > 0:
        try:  # each suite allocates its draws first, so a count too large fails at once
            worst = _matrix_suites(trials, rng, inject_fault)
            worst["closed_vs_rk4"] = _rk4_suite(trials, rng, inject_fault)
            worst["conditional_vs_rk4"] = _conditional_suite(trials, rng)
        except MemoryError:
            raise ConfigurationError(f"--trials {trials} is too many to allocate") from None
        for suite, tolerance in CHECK_TOLERANCES.items():
            rows.append(
                {
                    "suite": suite,
                    "trials": trials,
                    "max_deviation": worst[suite],
                    "tolerance": tolerance,
                    "passed": worst[suite] < tolerance,
                }
            )
    return rows


def cmd_check(args: argparse.Namespace) -> int:
    rows = run_check_suites(args.trials, args.seed, args.inject_fault)
    headers = ["suite", "trials", "max_deviation", "tolerance", "passed"]
    columns = [np.array([row[h] for row in rows]) for h in headers[1:]]
    write_table(headers, [tuple(row["suite"] for row in rows), *columns], args)
    failed = [row["suite"] for row in rows if not row["passed"]]
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# protocol tables


def cmd_wstate(args: argparse.Namespace) -> int:
    scheme = resolve_scheme(args)
    m_odd = check_odd_index(args.m_odd)
    m, r = _scheme_rows(qubit_counts(args), [scheme])
    # tau is the m_odd'th instant itself, as `decoherence` reports it without decay
    tau, a1, a, kinds, ok = w_state_columns(m, r, m_odd)
    replay_flagged(ok, lambda i: renormalized_trapping_time(
        int(m[i]), generate_w_state(int(m[i]), scheme)[1].r, 0.0, 0.0, m_odd
    ))
    headers = ["m", "scheme", "r", "tau_star", "a1", "a", "classification"]
    write_table(headers, [m, (scheme.tag,) * m.size, r, tau, a1, a, kinds], args)
    return EXIT_OK


#: the anticlone schemes, in the order each qubit count checks them
ANTICLONE_SCHEMES = (IDENTICAL, W_PLUS, W_MINUS, W_PRIME)
#: anticlone's columns after m: (header, scheme, 0 for a target's fidelity or 1 for the input's)
ANTICLONE_COLUMNS = (
    ("f_iden", IDENTICAL, 0), ("f_plusminus", W_PLUS, 0), ("f_sep", W_PRIME, 0),
    ("f1_iden", IDENTICAL, 1), ("f1_plus", W_PLUS, 1),
    ("f1_minus", W_MINUS, 1), ("f1_sep", W_PRIME, 1),
)
#: the largest defect of the one-register pipeline from the closed forms
PIPELINE_TOLERANCE = 1e-12


def cmd_anticlone(args: argparse.Namespace) -> int:
    counts = qubit_counts(args, default=(2, 30))
    n = len(ANTICLONE_SCHEMES)
    # (target, input) closed forms of each (M, scheme) row, M ascending, then scheme
    closed = np.empty((counts.size, n, 2))
    for j, scheme in enumerate(ANTICLONE_SCHEMES):  # counts checked by qubit_counts
        closed[:, j, 0], closed[:, j, 1] = _named_fidelities(counts.astype(float), scheme.tag)
    m, r = _scheme_rows(counts, ANTICLONE_SCHEMES)
    pipeline, ok = anticlone_fidelities(m, r, args.alpha)  # (target, input), as closed
    ok &= np.max(abs(pipeline - closed.reshape(-1, 2)), axis=1) <= PIPELINE_TOLERANCE
    replay_flagged(
        ok, lambda i: _check_anticlone_row(int(m[i]), ANTICLONE_SCHEMES[i % n], args.alpha)
    )
    headers, schemes, sides = zip(*ANTICLONE_COLUMNS)
    columns = [closed[:, ANTICLONE_SCHEMES.index(s), side] for s, side in zip(schemes, sides)]
    write_table(["m", *headers], [counts, *columns], args)
    return EXIT_OK


def _check_anticlone_row(m: int, scheme: CouplingScheme, alpha: float) -> None:
    """Check one (M, scheme) row through ``run_anticlone``, the one-register
    pipeline, against its closed form; raises on a failed check."""
    f_target, f_input = fidelity_curve(m, scheme)
    report = run_anticlone(m, scheme, alpha=alpha)
    defect = max(abs(report.fidelities[-1] - f_target), abs(report.fidelities[0] - f_input))
    if defect > PIPELINE_TOLERANCE:
        raise CheckFailure(
            f"anticlone closed form disagrees with pipeline at m={m} "
            f"scheme={scheme.tag}: defect {defect:.3e}"
        )


def cmd_decoherence(args: argparse.Namespace) -> int:
    given = args.r is not None or args.scheme is not None
    schemes = [resolve_scheme(args)] if given else DEFAULT_SCHEMES
    table = decay_robustness_scan(
        qubit_counts(args, default=(2, 20)),
        args.gamma_decay,
        args.kappa,
        m_odd=args.m_odd,
        schemes=schemes,
    )
    headers = ["m", "scheme", "r", "tau_star_c", "f_r", "p_no_click"]
    columns = [table.m, table.scheme, table.r, table.tau_star_c, table.fidelity, table.p_no_click]
    write_table(headers, columns, args)
    return EXIT_OK


def _parse_r_grid(text: str, m: int) -> np.ndarray:
    if text is None:
        return np.linspace(0.1, 4.0 * np.sqrt(m), 64)
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ConfigurationError(
            f"r-grid must be START:STOP:COUNT with numbers START and STOP and an "
            f"integer COUNT, got {text!r}"
        ) from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigurationError(f"r-grid START and STOP must be finite, got {text!r}")
    if start <= 0.0:
        raise ConfigurationError(f"r-grid START must be > 0, a coupling ratio, got {text!r}")
    count = check_count("r-grid COUNT", count, 0)
    if count < 1 or stop < start:
        raise ConfigurationError("empty r-grid")
    return np.linspace(start, stop, count)


def _scan_columns(m: int, r: np.ndarray) -> tuple:
    """``trapped_amplitudes``' (a1, a) at M qubits for each ratio of r, and the
    ``ok`` column of ``fidelity_curve``'s checks: its IEEE operations as columns."""
    with np.errstate(all="ignore"):  # a row failing its checks may overflow
        omega2 = r * r + (m - 1.0)
        a1, a = _trapped_amplitudes(m, r, omega2)
    return a1, a, (r > 0.0) & (r < math.inf) & (omega2 > 0.0) & (omega2 < math.inf)


def cmd_scan(args: argparse.Namespace) -> int:
    if args.m is None:
        raise ConfigurationError("scan needs a single --m")
    m = check_count("m", args.m, 2)  # before the default grid takes sqrt(m)
    grid = _parse_r_grid(args.r_grid, m)
    # the special ratios follow the grid, in their closed forms
    special = ("w_symmetry_low", "w_symmetry_high", "separable_transfer", "target_fidelity")
    optima = [*optimize_coupling_ratio(m, "w_symmetry")]
    optima += [optimize_coupling_ratio(m, objective) for objective in special[2:]]
    r = np.append(grid, optima)
    a1, a, ok = _scan_columns(m, r)
    replay_flagged(ok, lambda i: fidelity_curve(m, CouplingScheme.custom(float(r[i]))))
    kinds = ("grid",) * grid.size + special
    headers = ["kind", "r", "a1", "a", "f_target", "f_input"]
    write_table(headers, [kinds, r, a1, a, 0.5 * (1.0 - a), 0.5 * (1.0 - a1)], args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


#: every option of every command, as argparse keyword arguments
OPTIONS = {
    "--config": {"help": "key = value file; explicit flags win"},
    "--format": {"choices": ["csv", "json"], "default": "csv"},
    "--out": {"help": "output path (default: stdout)"},
    "--m": {"type": int, "help": "qubit count M"},
    "--m-range": {"help": "inclusive qubit-count range A:B"},
    "--scheme": {
        "choices": [tag for tag in SCHEME_TAGS if tag != "custom"],
        "help": "named coupling scheme (not with --r)",
    },
    "--r": {"type": float, "help": "explicit coupling ratio gamma_1/gamma (not with --scheme)"},
    "--gamma-decay": {
        "type": float, "default": DEFAULT_GAMMA_DECAY, "help": "qubit dipole decay rate"
    },
    "--kappa": {"type": float, "default": DEFAULT_KAPPA, "help": "cavity decay rate"},
    "--alpha": {"type": float, "default": 0.0, "help": "input-qubit phase"},
    "--m-odd": {"type": int, "default": 1, "help": "odd trapping-time index"},
    "--trials": {"type": int, "default": 200, "help": "randomized trials"},
    "--seed": {"type": int, "default": 42, "help": "RNG seed"},
    "--r-grid": {"help": "scan grid START:STOP:COUNT"},
    "--inject-fault": {
        "choices": ["unitarity_sign"],
        "help": "deliberately corrupt the closed form (exercises failure paths)",
    },
}

#: command -> (handler, help, the options it reads besides the common ones)
COMMANDS = {
    "check": (
        cmd_check,
        "cross-validate all closed forms against the oracles",
        ("--trials", "--seed", "--inject-fault"),
    ),
    "wstate": (
        cmd_wstate,
        "trapped-state amplitudes and classification",
        ("--m", "--m-range", "--scheme", "--r", "--m-odd"),
    ),
    "anticlone": (
        cmd_anticlone,
        "anti-cloning fidelity curves versus qubit count",
        ("--m", "--m-range", "--alpha"),
    ),
    "decoherence": (
        cmd_decoherence,
        "no-click fidelity and survival probability",
        ("--m", "--m-range", "--scheme", "--r", "--gamma-decay", "--kappa", "--m-odd"),
    ),
    "scan": (cmd_scan, "coupling-ratio sweep with the special ratios", ("--m", "--r-grid")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="qcm",
        description="Multiqubit-cavity machine: trapped-state protocols and their validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        # no prefix matching: `scan --r` must not pass for `scan --r-grid`
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in ("--config", "--format", "--out") + options:
            command.add_argument(flag, **OPTIONS[flag])
    return parser


def _parse_m_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise ConfigurationError(
            f"m-range must be A:B with integers A and B, got {text!r}"
        ) from None
    # every command that reads --m-range needs two qubits
    lo, hi = (check_count("m", count, 2) for count in (lo, hi))
    if hi < lo:
        raise ConfigurationError(f"empty m-range {text!r}")
    return lo, hi


def _load_config_file(path: str) -> list[str]:
    """Turn `key = value` lines into CLI flags (inserted before user flags)."""
    flags = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            flags += [f"--{key.replace('_', '-')}", value]
    return flags


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # config file values sit before explicit flags so the flags win
        args = parser.parse_args([argv[0]] + _load_config_file(args.config) + argv[1:])
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parse_args(argv)
        handler = COMMANDS[args.command][0]
        return handler(args)
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ValueError, OSError) as exc:  # ConfigurationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a qubit count too large to allocate
        print(f"error: {str(exc) or 'not enough memory'}", file=sys.stderr)
        return EXIT_CONFIG


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
