"""Straight-line code traced from scalar fields, and traced programs.

A field written against :mod:`axisym.autodiff` is run once on recording
scalars (``_Var``); every ``+ - * /``, every integer power ``v ** n``
and every math function is recorded as one operation of a generated
Python function that repeats the same operations, on the same operands,
on floats or on numpy rows, with no per-operation objects (forward-mode
derivatives by source transformation; Griewank & Walther, "Evaluating
Derivatives", 2nd ed., SIAM 2008, ch. 3-4).  A value that one operation
reads, and that is not an output, is written in parentheses into the
expression that reads it; a value read twice or more is a line of its
own, ``v12 = ...``, as is a value at the end of a chain of
``NEST_DEPTH`` nested ones and, in code that frees its rows, a value
whose expression frees two or more (see Blocks).  A local variable
costs a store and a load in CPython, and most values are read once:
nested code makes an RHS call of the 8 catalog configs 9-23% cheaper,
and the 87 programs of a first ``verify_system`` over the 11 specs take
225k characters in place of 435k.
The integrator's RHS and H are traced this way, and so are an
observable's value (:func:`traced_value`, run by
``Observable.eval``), ``gradient6(fn, .)`` (:func:`gradient`, run in
place of six dual-number passes) and the closed-form solutions.
:mod:`axisym.verify` traces whole checks the same way: each bracket with
both gradient norms, the closure's squared bracket with the four values
it is compared at, and the rows of the determining equations.

Math functions.  :data:`FUNCTIONS` is autodiff's table of the 14
functions it differentiates, each ufunc with the ``math`` function it
calls in its place on Python floats and ints; this module keeps no copy
of it, nor of autodiff's test for those leaves.  Autodiff calls the
ufunc on any other leaf (``np.sqrt(v)``); on a ``_Var`` that call is
recorded as one operation, ``sqrt(v)``.  A program with such a line is
compiled once and bound twice, to the table's ``math`` functions and to
its ufuncs.  The returned program picks the first when every input is a
leaf on which autodiff calls ``math``, the second otherwise (rows, long
doubles), so on a state of floats or of rows it gives autodiff's values
bit for bit.  (On
a state mixing floats and rows, lines that read only the floats run the
ufunc where autodiff would run the math function.)  A program without a
function line is the compiled function itself.

Exactness.  Arithmetic with a constant is folded only where the result
is exact on finite values (``v + 0``, ``v * 1``, ``v * 0``) or on every
input (``v ** 1`` is v, ``v ** 0`` is 1.0), operands of
``+`` and ``*`` are swapped only where IEEE arithmetic commutes,
identical operations share a line, and nesting keeps each operation
with its operands in their order (an operation may run later, at its
reader, which changes no value, though where two operations raise on a
state another one may raise first), so on finite inputs the generated
code gives the values of the traced field bit for bit: a traced
gradient equals ``gradient6`` on the same floats or rows, in float64 and
in long double.  Any other ``v ** n`` is emitted as ``v ** n``, so
floats and numpy rows run the same power the field runs.  In long
double numpy's power is glibc ``powl``, save for squares: per 4096
columns on a 2-CPU Xeon VM, ``** 2`` took 13 us, ``** 3`` 95 us and
``** 4`` 1.47 ms, against 15 us for a multiply.  So the catalog's
fields write powers above 2 as products (``X2 ** 2 * X2 ** 2``, whose
square the tape shares).  A field that branches on a value, takes a
power other than an ``int`` one or calls a ufunc outside
:data:`FUNCTIONS` is not straight-line code, nor is ``abs`` of a dual
over a traced value, which branches on its sign: tracing it raises
TypeError, which :func:`straight_line` raises again naming the
program's compile tag, at the first use of the field.  Every field the
package checks or integrates must therefore be straight-line code over
:mod:`axisym.autodiff` math.  Nested derivatives trace as well when the
duals are built on the recording scalars, as the determining equations'
program builds them: each dual layer's arithmetic becomes operations of
the one program.  A state handed to :func:`gradient` that already holds
duals stays on dual numbers.

One cache.  Every traced program is kept in one dict (:func:`cached`)
under its compile tag and the identity of each object it is traced from
(an observable's function, a bracket's two functions, a closure
polynomial, a spec for its RHS and closure, an (ansatz, B, W),
closed-form constants with their params).  It holds generated code and
verify's quadratic ansatz per (spec, observable), neither of which
refers to its keys; a field that cannot be traced leaves no entry.  A
weak reference per key drops an entry when the first of its keys dies,
so a spec built by ``dataclasses.replace`` runs its own programs.

Blocks.  On arrays a traced program runs on ``BLOCK`` columns at a time
(:func:`evaluate_blocks`) into preallocated rows, and its code deletes
each named value after its last use; a nested value's row is freed as
soon as its reader has run.  A value read once is not nested where two
or more named rows are read for the last time in its expression: it
stays a line at its place, so they are freed there rather than held
until its reader runs (Sethi & Ullman's order, JACM 17, 1970).  These
bound the memory of a call, which otherwise holds one temporary row per
named value.  Op_min's closure program, run in long double, names 125
values, has 60 ``del`` lines and holds at most 50 rows at once.  A
``verify_system`` sweep holds one sample set at a time and writes the
closure sides in float64, each block rounded from long double as it is
written.  Two passes of the ``verify`` benchmark's work, its 100k-state
op_min sweep included, peak at 49.4 MB of RSS on a 2-CPU Xeon VM.
Blocks stay at 4096 columns because wider long-double blocks fall out
of the cache: op_min X1's gradient on 100k long-double states took
108-147 ms with 4096 columns and 142-170 ms with 8192-16384.

Two processes.  A call of at least ``SPLIT_BLOCKS`` blocks, in either
dtype, runs on two processes where :func:`beside` may fork: the process
may use a second CPU (``os.sched_getaffinity``, else ``os.cpu_count``)
and runs no other thread.  The outputs are views of one anonymous shared
mapping; a forked child fills the odd blocks while the caller fills the
even ones, and an exception raised in the child's half is raised again
in the caller.  The child starts from the caller's memory, numpy's error
state included, and each column runs the same code as in one process,
so the values are the same; where no fork is made the blocks run in
place.  A fork has a fixed cost: fork, exit and reap took 2.2 ms in a
57 MB ``verify`` process, and memory first written just after it is
copied (40 long-double rows of 4096 columns, allocated and filled, took
2.0 times as long).  So only large calls gain.  Milliseconds per call of
op_min's X1 bracket (float64) and closure sides (long double) on a 2-CPU
Xeon VM, medians of 5 runs of 7 calls, serial | split from 2 blocks:

    =======  ============  ==========
    columns  float64       long double
    =======  ============  ==========
       8192   4.2 |  7.5    29 |  22
      16384   5.6 | 10.2    47 |  40
      32768  12.2 | 13.7    98 |  74
     100000  32.8 | 27.4   274 | 177
    =======  ============  ==========

Float64 gains only past 8 blocks (at 32768 columns, 11.2-15.1 ms serial
and 12.3-15.1 split), long double from 2.  ``SPLIT_BLOCKS`` = 8 serves
both, so long-double calls of 2-7 blocks give up their gain; no caller
makes them at the CLI's default of 1000 samples or in the ``verify``
benchmark, whose large calls have 25 blocks.  Threads do not serve
float64, whose loops hold the GIL (op_min X1's gradient at 100k: 26-32
ms on one thread, 51-58 ms on two).  Over a ``verify`` pass, whose
sweeps hold one sample set at a time and float64 closure sides, the
child's peak RSS was 34.7 MB and the caller's 49.5 MB.

The table's gains need a free second CPU, which a shared VM does not
always give.  In some episodes two processes running a pure-Python loop
were 0.70-1.16 times as fast as one (1.45-1.93 at other times), and
op_min's X1 bracket at 100k took 51.0-53.6 ms split against 42.2-45.9 ms
serial.  Writing the closure polynomials' powers above 2 as products
took op_min's closure sides at 100k from 331-395 to 225-341 ms serial
and from 200-226 to 139-184 ms split, and the median of 12 steady passes
of the ``verify`` benchmark from 613, 722 and 626 ms to 540, 585 and 539
ms with ``_cpus`` forced to 1, and from 491, 446 and 406 ms to 492, 406
and 381 ms on two CPUs (three alternating runs each).
"""

from __future__ import annotations

import collections
import contextlib
import math
import numbers
import os
import pickle
import sys
import threading
import types
import weakref

import numpy as np

from .autodiff import _MATH_LEAVES, FUNCTIONS, Dual

# Columns per call of a traced gradient on arrays.
BLOCK = 4096
# Blocks from which a call of evaluate_blocks runs on two processes.
SPLIT_BLOCKS = 8

# A traced line calls a function of autodiff's table by its ufunc's name,
# bound to the ufunc or to the math function autodiff calls in its place.
_FLOAT_FUNCTIONS = {u.__name__: f for u, f in FUNCTIONS.items()}
_ROW_FUNCTIONS = {u.__name__: u for u in FUNCTIONS}
# Numpy calls these ufuncs for an operator whose other operand is a
# numpy scalar (``np.float64(2.0) * v``).
_OPERATORS = {np.add: "+", np.subtract: "-", np.multiply: "*", np.true_divide: "/"}


class _Var:
    """Recording scalar: each ``+ - * /`` on it, each power ``v ** n``
    with an ``int`` exponent and each ufunc of :data:`FUNCTIONS` applied
    to it records one operation on the tape.

    Arithmetic with plain numbers is folded where the result is exact on
    finite values (``v + 0``, ``v * 1``, ``v * 0``), and so are
    ``v ** 1`` and ``v ** 0``, so fields that do not depend on an
    argument trace to constants.  Identical operations
    share one value.  Any other use (a branch on its value, another
    power, another ufunc) raises TypeError: such a field is not
    straight-line code.
    """

    __slots__ = ("tape", "name")

    def __init__(self, tape: "_Tape", name: str):
        self.tape = tape
        self.name = name

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "__call__" and not kwargs:
            if ufunc in FUNCTIONS:
                return self.tape.call(ufunc.__name__, inputs)
            if ufunc in _OPERATORS:
                return self._arith(_OPERATORS[ufunc], *inputs)
        raise TypeError(f"cannot trace numpy {ufunc.__name__}.{method}")

    def __add__(self, other):
        return self._arith("+", self, other)

    def __radd__(self, other):
        return self._arith("+", other, self)

    def __sub__(self, other):
        return self._arith("-", self, other)

    def __rsub__(self, other):
        return self._arith("-", other, self)

    def __mul__(self, other):
        return self._arith("*", self, other)

    def __rmul__(self, other):
        return self._arith("*", other, self)

    def __truediv__(self, other):
        return self._arith("/", self, other)

    def __rtruediv__(self, other):
        return self._arith("/", other, self)

    def __pow__(self, n):
        # ``v ** n`` as the fields write it: the same operator, with its
        # own numpy fast paths, runs on floats and on rows.
        if type(n) is not int:
            raise TypeError(f"cannot trace a power with exponent {n!r}")
        if n == 1:
            return self
        if n == 0:      # 1.0 on every input, NaN and infinities included
            return 1.0
        return self.tape.emit("**", self, n)

    def _arith(self, op, a, b):
        """``a op b`` where one of them is ``self``."""
        other = b if a is self else a
        if isinstance(other, _Var):
            return self.tape.emit(op, a, b)
        if not _is_const(other):
            return NotImplemented      # e.g. a Dual: its reflected method runs
        if op == "+" and other == 0:
            return self
        if op == "-" and other == 0:
            return self if b is other else -self
        if op == "*" and other in (0, 1):
            return self if other == 1 else 0.0
        if op == "/" and b is other and b == 1:
            return self
        if op == "/" and a is other and a == 0:
            return 0.0
        return self.tape.emit(op, a, b)

    def __neg__(self):
        return self.tape.emit("-", None, self)

    def _untraceable(self, *args):
        raise TypeError("a traced value has no concrete value to branch on")

    __bool__ = __eq__ = __ne__ = _untraceable


def _is_const(v) -> bool:
    # The exact-type test skips the ABC check for the common operands.
    return type(v) is float or type(v) is int or isinstance(v, numbers.Real)


def _operand(v) -> str:
    if type(v) is _Var:
        return v.name
    if type(v) is float or type(v) is int:
        # The common constants, without the ABC checks below.
        if math.isfinite(v):
            return repr(v)
    elif _is_const(v) and math.isfinite(v):
        return repr(int(v) if isinstance(v, numbers.Integral) else float(v))
    raise TypeError(f"cannot trace through operand {v!r}")


# Deepest nesting of parentheses in a generated line.  CPython's parser
# rejects more than 200 nested parentheses, and its compiler recurses
# once per level, so a long chain of values read once is cut into lines.
NEST_DEPTH = 40
# Pattern of each binary operation: its operands fill the ``{}``.
_BINARY = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "**": "{} ** {}"}


def _last_reads(names, unplaced) -> int:
    """How many of ``names`` an expression reading them reads for the last
    time: those whose reads not yet in a named line are all in ``names``."""
    return sum(unplaced[r] == k for r, k in collections.Counter(names).items())


class _Tape:
    """Straight-line program recorded from operations on ``_Var``."""

    def __init__(self):
        # (name, expression, names it reads, form): the form is the
        # expression with a ``{}`` in place of each name it reads.
        self.lines = []
        self.memo = {}            # expression -> name of its line

    def emit(self, op, a, b) -> _Var:
        if a is None:
            text = _operand(b)
            return self._line(f"-{text}", "-{}", (b,), (text,))
        lhs, rhs = _operand(a), _operand(b)
        if op in ("+", "*") and rhs < lhs:
            # Exact in IEEE arithmetic; lets a*b and b*a share a line.
            a, b, lhs, rhs = b, a, rhs, lhs
        return self._line(f"{lhs} {op} {rhs}", _BINARY[op], (a, b), (lhs, rhs))

    def call(self, fn: str, args) -> _Var:
        """``fn(*args)``, a function of :data:`FUNCTIONS` named as its ufunc."""
        texts = [_operand(a) for a in args]
        return self._line(f"{fn}({', '.join(texts)})",
                          f"{fn}({', '.join(['{}'] * len(args))})", args, texts)

    def _line(self, expr, pattern, operands, texts) -> _Var:
        """The line ``expr``, which is ``pattern`` filled with the ``texts``
        of ``operands``.  Many operations repeat a line, so the form is
        made for a new line only, and the caller writes ``expr`` with an
        f-string, faster than ``str.format``."""
        # The tape holds names, not _Vars, so it is freed with the last
        # _Var rather than by the cycle collector.
        name = self.memo.get(expr)
        if name is None:
            name = self.memo[expr] = f"v{len(self.lines)}"
            reads = tuple(t for x, t in zip(operands, texts) if type(x) is _Var)
            if len(reads) < len(texts):         # write the constants in
                pattern = pattern.format(*["{}" if type(x) is _Var else t
                                           for x, t in zip(operands, texts)])
            self.lines.append((name, expr, reads, pattern))
        return _Var(self, name)

    def source(self, inputs, outputs, free=False) -> str:
        """Source of ``rhs(t, y)`` returning ``outputs``, dead lines dropped.

        A value read by exactly one operation, and not an output, is not
        a line of its own: its expression is written, in parentheses,
        into the one expression that reads it, down to ``NEST_DEPTH``
        levels; a longer chain is cut into lines.  That saves a store and
        a load of a local per value, and on rows frees its temporary as
        soon as it is read.  Inputs, outputs and values read twice or more
        keep their names.  Each operation keeps its operands and their
        order, so the values do not change.  With ``free`` each named
        value is deleted after the last line that reads it, directly or
        in a nested expression, so a call on arrays holds only the rows
        still to be read, not one per value; and a value read once in
        whose expression two or more named values are read for the last
        time keeps its line, so those are deleted there, not at its
        reader.
        """
        out = [_operand(v) for v in outputs]
        uses = dict.fromkeys(out, 2)        # an output keeps its name
        live = []
        for line in reversed(self.lines):
            if line[0] in uses:
                live.append(line)
                for r in line[2]:
                    uses[r] = uses.get(r, 0) + 1
        unplaced = dict(uses)     # name -> its reads not yet in a named line
        nested = {}       # name -> (expression, its depth, names it reads)
        body = []         # (name, expression, names it reads)
        for name, _, reads, form in reversed(live):
            args, depth, names = [], 0, []
            for r in reads:
                if r in nested:
                    text, d, inner = nested.pop(r)
                    args.append(f"({text})")
                    if d >= depth:
                        depth = d + 1
                    names += inner
                else:
                    args.append(r)
                    names.append(r)
            expr = form.format(*args)
            if (uses[name] == 1 and depth < NEST_DEPTH
                    and not (free and _last_reads(names, unplaced) >= 2)):
                nested[name] = (expr, depth, names)
            else:
                body.append((name, expr, names))
                for r in names:
                    unplaced[r] -= 1
        lines = []
        read_later = set(out)
        for name, expr, names in reversed(body):
            if free:
                dead = sorted(set(names) - read_later)
                if dead:
                    lines.append(f"    del {', '.join(dead)}")
                read_later.update(names)
            lines.append(f"    {name} = {expr}")
        head = f"    {''.join(v.name + ', ' for v in inputs)}= y"
        return "\n".join(["def rhs(t, y):", head, *reversed(lines),
                          f"    return ({', '.join(out)})"])


def straight_line(fn, tag: str, free=False, inputs=6):
    """Turn a single-state ``fn(t, y)`` on scalars into generated code.

    ``fn`` is run once on ``inputs`` recording scalars; the function
    returned repeats each of its operations, on the same operands in the
    same order, on the floats of a state ``y`` (the solver passes a tuple
    of six) or on rows of a block, so on finite values its results equal
    those of ``fn`` bit for bit.  A value read once is nested into the
    expression that reads it (see :meth:`_Tape.source`), since a named
    local costs a store and a load.  ``fn`` returns a tuple; for a
    1-tuple the generated function returns its one value.  The code is
    compiled under the file name ``<tag>``; ``free`` deletes each named
    value after its last use.  Code that calls a math function comes back
    behind :func:`_dispatch`.  Raises TypeError naming ``tag`` if ``fn``
    is not straight-line code.
    """
    try:
        source = _trace(fn, free, inputs)
    except TypeError as exc:
        raise TypeError(f"cannot trace <{tag}>: {exc}") from exc
    namespace: dict = {}
    exec(compile(source, f"<{tag}>", "exec"), namespace)
    program = namespace["rhs"]
    code = program.__code__
    if not _ROW_FUNCTIONS.keys() & set(code.co_names):
        return program
    return _dispatch(types.FunctionType(code, _FLOAT_FUNCTIONS),
                     types.FunctionType(code, _ROW_FUNCTIONS))


def _trace(fn, free, inputs) -> str:
    """Source of ``fn`` traced on ``inputs`` recording scalars.

    The tape is freed on return, before the source is compiled: the
    two together set the peak memory of tracing a large program.
    """
    tape = _Tape()
    names = [_Var(tape, f"y{i}") for i in range(inputs)]
    return tape.source(names, fn(0.0, names), free)


def _dispatch(on_floats, on_rows):
    """One program from its code bound to the math functions and to the ufuncs.

    A state whose inputs are all Python or NumPy floats or ints runs
    ``on_floats``, any other ``on_rows``: the test autodiff applies to
    each leaf it calls a function on.
    """
    def program(t, y):
        for v in y:
            if not isinstance(v, _MATH_LEAVES):
                return on_rows(t, y)
        return on_floats(t, y)
    return program


# (tag, id of each key) -> (value, weak references to the keys).
_CACHE: dict = {}


def cached(tag: str, keys: tuple, make):
    """``make()``, made once per ``tag`` and identity of each of ``keys``.

    The value is kept until one of ``keys`` dies; it must not refer to
    them, or they would never die.  Keys are held by weak reference and
    compared by identity, so any object that takes a weak reference can
    be one, an unhashable one included.
    """
    entry = (tag, *map(id, keys))
    found = _CACHE.get(entry)
    if found is None:
        def drop(_):
            _CACHE.pop(entry, None)
        found = _CACHE[entry] = (make(), [weakref.ref(k, drop) for k in keys])
    return found[0]


def cached_program(keys: tuple, fn, tag: str, inputs=6, free=True):
    """``straight_line(fn, tag, free, inputs)``, traced on first use.

    Kept by :func:`cached` under ``tag`` and ``keys``, the objects ``fn``
    is traced from.  A ``fn`` that cannot be traced raises TypeError at
    each call and leaves the cache as it was.
    """
    return cached(tag, keys, lambda: straight_line(fn, tag, free, inputs))


def evaluate_rows(fn, t, y, out=None) -> np.ndarray:
    """Generated ``fn`` on a block of states passed as six rows.

    Writes into the six rows of ``out`` (default: a new array like
    ``y``); outputs that the traced code folded to constants are
    broadcast to rows.
    """
    out = np.empty_like(y) if out is None else out
    for i, v in enumerate(fn(t, tuple(y))):
        out[i][...] = v
    return out


def evaluate_blocks(fn, rows, n_out: int, dtype=None) -> list:
    """``fn(0.0, block)`` on the columns of ``rows``, ``BLOCK`` at a time.

    ``rows`` are arrays of one shape (or that broadcast to one); ``fn``
    takes a block as a tuple of rows, cast to ``dtype`` if one is given,
    and returns ``n_out`` values.  They are written, constants broadcast,
    into ``n_out`` arrays of the rows' shape and dtype, so a value
    computed in a wider ``dtype`` is rounded block by block as it is
    written.  Neither a cast copy of the whole input nor a wide copy of
    the whole output is made: the closure check runs on long-double
    blocks of float64 states and keeps float64 sides.  One array per
    output, as :func:`gradient6` gives; on one CPU, one (n_out, N) array
    in their place left the peak RSS of two ``verify`` passes where it
    was (49.4-49.6 MB against 49.4-49.8 MB).

    A call of at least ``SPLIT_BLOCKS`` blocks runs on two processes
    (see the module's "Two processes"), with the values of one.
    """
    rows = np.broadcast_arrays(*rows)
    flat = [np.ravel(r) for r in rows]
    size = flat[0].size
    out_dtype = np.result_type(*flat, 0.0)
    starts = range(0, size, BLOCK)

    def run(starts):
        for lo in starts:
            block = [r[lo:lo + BLOCK] for r in flat]
            if dtype is not None:
                block = [b.astype(dtype) for b in block]
            for o, v in zip(out, fn(0.0, tuple(block)), strict=True):
                o[lo:lo + BLOCK] = v

    if len(starts) < SPLIT_BLOCKS:
        out = [np.empty(size, out_dtype) for _ in range(n_out)]
        run(starts)
    else:
        # One shared mapping, so the child's columns reach the caller.
        import mmap

        width = size * out_dtype.itemsize
        shared = mmap.mmap(-1, n_out * width)
        out = [np.frombuffer(shared, out_dtype, size, i * width) for i in range(n_out)]
        with beside(lambda: run(starts[1::2])) as child:
            run(starts[::2])
            child()
    return [o.reshape(rows[0].shape) for o in out]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def beside(fn):
    """Run ``fn()`` in a forked child while the body runs.

    Yields a function that returns ``fn()``'s value or raises its
    exception.  Forks only where a second CPU may take the child and no
    other thread is alive (one holding a lock at the fork would leave the
    child stuck on it); otherwise, or when the fork fails, ``fn`` runs in
    place before the body.  The child is reaped when the body exits, and
    killed first if it is still running.
    """
    pid = None
    if hasattr(os, "fork") and _cpus() >= 2 and threading.active_count() == 1:
        sys.stdout.flush()
        sys.stderr.flush()
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
    if pid == 0:
        try:
            try:
                out = (True, fn())
            except BaseException as exc:    # raised again in the parent
                out = (False, exc)
            try:
                data = pickle.dumps(out)
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((False, RuntimeError(repr(out[1]))))
            with os.fdopen(w, "wb") as pipe:
                pipe.write(data)
        finally:
            # Neither flush inherited stdio buffers nor run atexit handlers.
            os._exit(0)
    if pid is None:
        value = fn()
        yield lambda: value
        return
    os.close(w)
    reader = os.fdopen(r, "rb")

    def result():
        data = reader.read()
        if not data:
            raise RuntimeError("the forked child ended without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        reader.close()
        if os.waitpid(pid, os.WNOHANG)[0] == 0:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def name_of(fn) -> str:
    return getattr(fn, "__qualname__", "fn")


def traced_gradient(fn):
    """``gradient6(fn, .)`` as a program, by :func:`cached_program`."""
    from .phase import gradient6   # phase imports this module

    return cached_program((fn,), lambda t, y: tuple(gradient6(fn, list(y))),
                          f"grad {name_of(fn)}")


def traced_value(fn):
    """``fn`` on one state as a program, by :func:`cached_program`."""
    return cached_program((fn,), lambda t, y: (fn(list(y)),), f"value {name_of(fn)}")


def gradient(fn, state) -> list:
    """``gradient6(fn, state)``, by the program of :func:`traced_gradient`.

    ``state`` holds six floats or six arrays of one shape; the arrays
    run ``BLOCK`` columns at a time.  A state holding duals goes to
    :func:`gradient6`.
    """
    from .phase import gradient6

    if any(isinstance(c, Dual) for c in state):
        return gradient6(fn, state)
    grad = traced_gradient(fn)
    if all(np.ndim(c) == 0 for c in state):
        return list(grad(0.0, tuple(state)))
    return evaluate_blocks(grad, state, 6)
