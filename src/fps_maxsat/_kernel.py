"""The compiled step loop, its build, and the hand-over with the Python engine.

``_kernel.c`` is a port of the search loop: ``SearchState.flip``,
``update_weights`` and ``probed_positive_scores``, the ``IndexedSet``
operations, and the step functions of :mod:`fps_maxsat.solver`, together
with CPython's MT19937 generator.  It makes the same random draws in the
same order, so a run takes the same trajectory, and prints the same bytes,
with either engine.  The Python engine is the reference: a change to an
update rule must be made in both, and the differential tests compare them.

:func:`load` compiles the source on first use with the C compiler Python
was built with, into the package's ``__pycache__`` under a name keyed by
the source hash, and loads it with ctypes; later processes reuse the
build, and a new build removes those of other versions of the source.
When there is no compiler, or the build fails, it returns None and
the Python engine runs.  :func:`attach` copies a :class:`SearchState` and
its ``random.Random`` into the kernel; :meth:`Kernel.detach` copies them
back.
"""

from __future__ import annotations

import ctypes
import os
import random
import zlib
from array import array
from itertools import accumulate, chain
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from .engine import IndexedSet, SearchState
from .formula import INFEASIBLE

if TYPE_CHECKING:
    from .solver import SolverConfig

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
#: Never a fast-math flag: the kernel must round floats as Python does.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: Libraries, placed after the source on the compile line (``pow``).
LDLIBS = ("-lm",)

# fk_run results (the FK_* enum in _kernel.c)
BUDGET, IMPROVED, SLICE, DONE, HANDBACK = range(5)
#: Longest stretch of search between two returns to Python, so signal
#: handlers and the stop flag are served promptly.
SLICE_S = 0.01

_INT32_MAX = 2**31 - 1
_INT64_MAX = 2**63 - 1
#: Weights, scores and costs stay below this bound in the kernel.
WEIGHT_BOUND = 2**62


class _State(ctypes.Structure):
    """``struct fk_state`` of _kernel.c, field for field."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in (
            "n", "m", "mode", "sc_num", "sv_num", "h_inc", "s_inc",
            "soft_cap",
        )
    ] + [("sp", ctypes.c_double)] + [
        (name, ctypes.c_int64)
        for name in (
            "offset", "never_feasible", "soft_falsified_weight", "flips",
            "best_cost", "has_best", "fh_len", "fs_len", "gv_len",
            "mt_index",
        )
    ] + [
        (name, ctypes.c_void_p)
        for name in (
            "mt", "lit_start", "lits", "soft_weight", "init_weight",
            "dyn_weight", "assign", "best_assign", "sat_count", "tv",
            "score", "fh_items", "fs_items", "gv_items", "work",
        )
    ]


def _compiler() -> List[str]:
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _compile(source: Path, target: Path) -> None:
    """Compile ``source`` to ``target`` through a temporary file.

    The rename is atomic, so a concurrent build never loads a half-written
    library.  Raises OSError when the compiler is missing or fails.
    """
    import subprocess

    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            [*_compiler(), *CFLAGS, "-o", str(tmp), str(source), *LDLIBS],
            check=True,
            capture_output=True,
            timeout=300,
        )
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot compile {source}: {exc}") from None
    finally:
        tmp.unlink(missing_ok=True)


def build(source: Path, cache_dir: Path) -> Optional[ctypes.CDLL]:
    """The kernel built from ``source``, compiling only when not cached.

    A new build removes the builds of other versions of the source.
    Returns None when the compiler is missing or fails, or the library
    cannot be loaded.
    """
    try:
        # crc32 is cheap to load, unlike hashlib, and ample to tell the
        # versions of one file apart.
        flags = " ".join(CFLAGS + LDLIBS).encode()
        key = zlib.crc32(source.read_bytes() + flags)
        machine = os.uname().machine
        target = cache_dir / f"_kernel-{key:08x}-{machine}.so"
        if not target.exists():
            _compile(source, target)
            for stale in cache_dir.glob(f"_kernel-*-{machine}.so"):
                if stale != target:
                    try:
                        stale.unlink()
                    except OSError:
                        pass
        lib = ctypes.CDLL(str(target))
    except (OSError, AttributeError):
        return None
    ptr = ctypes.POINTER(_State)
    lib.fk_init.argtypes = [ptr]
    lib.fk_init.restype = ctypes.c_int
    lib.fk_free.argtypes = [ptr]
    lib.fk_free.restype = None
    lib.fk_run.argtypes = [ptr, ctypes.c_int64, ctypes.c_double, ctypes.c_double]
    lib.fk_run.restype = ctypes.c_int
    return lib


_lib: Optional[ctypes.CDLL] = None
_loaded = False


def load() -> Optional[ctypes.CDLL]:
    """The kernel library, built on first use; None when it cannot be."""
    global _lib, _loaded
    if not _loaded:
        _loaded = True
        _lib = build(SOURCE, CACHE_DIR)
    return _lib


def _buffer(typecode: str, values, size: int) -> array:
    """``values`` in an array of ``size`` items plus one spare zero."""
    buf = array(typecode, values)
    buf.frombytes(bytes(buf.itemsize * (size + 1 - len(buf))))
    return buf


class Kernel:
    """A search state and its generator, held by the compiled kernel.

    While attached, the kernel's copy is the live one: ``run`` keeps only
    ``state.best_cost`` current, and ``detach`` copies everything else back
    into the :class:`SearchState` and the ``random.Random``.
    """

    def __init__(self, lib, state: SearchState, rng: random.Random,
                 st: _State, bufs: dict, rng_state: tuple) -> None:
        self._lib = lib
        self._state = state
        self._rng = rng
        self._st = st
        self._bufs = bufs  # owns the memory st points into
        self._rng_state = rng_state

    def run(self, max_flips: Optional[int], remaining_s: float) -> int:
        """Search until a budget, an improvement, or the end of a slice.

        Returns one of BUDGET, IMPROVED, SLICE, DONE (nothing to do) and
        HANDBACK (the next step could overflow; the Python engine must take
        over after ``detach``).
        """
        limit = -1 if max_flips is None else min(max_flips, _INT64_MAX)
        st = self._st
        status = self._lib.fk_run(ctypes.byref(st), limit, remaining_s, SLICE_S)
        self._state.best_cost = st.best_cost if st.has_best else INFEASIBLE
        return status

    def detach(self) -> None:
        """Copy the kernel's state back into the SearchState and the
        generator, and free the kernel's memory; the Kernel is unusable
        after."""
        st, b, state = self._st, self._bufs, self._state
        n1 = state.num_vars + 1
        m = len(state.formula.clauses)
        state.assign[:] = map(bool, b["assign"][:n1])
        state.score[:] = b["score"][:n1].tolist()
        state.dyn_weight[:] = b["dyn_weight"][:m].tolist()
        state.sat_count[:] = b["sat_count"][:m].tolist()
        state.tv[:] = b["tv"][:m].tolist()
        state.falsified_hard = IndexedSet(b["fh_items"][: st.fh_len].tolist())
        state.falsified_soft = IndexedSet(b["fs_items"][: st.fs_len].tolist())
        state.good_vars = IndexedSet(b["gv_items"][: st.gv_len].tolist())
        state.soft_falsified_weight = st.soft_falsified_weight
        state.flips = st.flips
        if st.has_best:
            state.best_cost = st.best_cost
            state.best_assign = list(map(bool, b["best_assign"][:n1]))
        version, _, gauss_next = self._rng_state
        self._rng.setstate(
            (version, tuple(b["mt"][:624]) + (st.mt_index,), gauss_next)
        )
        self._lib.fk_free(ctypes.byref(st))


def attach(
    state: SearchState, config: SolverConfig, rng: random.Random
) -> Optional[Kernel]:
    """Hand ``state`` and ``rng`` to the kernel, or None to stay in Python.

    None when the kernel cannot be built, or when the instance is outside
    what int32 indices and int64 arithmetic can hold exactly: more than
    2**31 - 1 variables, clauses or literals, a total soft weight of
    2**62 or more, or weights so large relative to the occurrence counts
    that a score could overflow.
    """
    from .solver import MODES

    lib = load()
    if lib is None:
        return None
    formula = state.formula
    wp = state.weighting
    lits = formula.clauses
    n, m = state.num_vars, len(lits)
    if sum(formula.weights) + formula.soft_offset >= WEIGHT_BOUND:
        return None
    if max(n, m) > _INT32_MAX or max(wp.h_inc, wp.s_inc) >= WEIGHT_BOUND:
        return None
    if max(config.sc_num, config.sv_num) > _INT64_MAX:
        return None
    rng_state = rng.getstate()
    try:
        lit_start = _buffer("i", accumulate(map(len, lits), initial=0), m)
        bufs = {
            "mt": _buffer("I", rng_state[1][:624], 624),
            "lit_start": lit_start,
            "lits": _buffer("i", chain.from_iterable(lits), lit_start[m]),
            "soft_weight": _buffer("q", state.soft_weight, m),
            "init_weight": _buffer("q", state.init_weight, m),
            "dyn_weight": _buffer("q", state.dyn_weight, m),
            "assign": _buffer("b", state.assign, n),
            "best_assign": _buffer("b", state.best_assign or (), n),
            "sat_count": _buffer("i", state.sat_count, m),
            "tv": _buffer("i", state.tv, m),
            "score": _buffer("q", state.score, n),
            "fh_items": _buffer("i", state.falsified_hard.items, m),
            "fs_items": _buffer("i", state.falsified_soft.items, m),
            "gv_items": _buffer("i", state.good_vars.items, n),
        }
    except OverflowError:
        return None
    st = _State(
        n=n,
        m=m,
        mode=MODES.index(config.mode),
        sc_num=config.sc_num,
        sv_num=config.sv_num,
        h_inc=wp.h_inc,
        s_inc=wp.s_inc,
        soft_cap=min(wp.soft_cap, _INT64_MAX),
        sp=wp.sp,
        offset=formula.soft_offset,
        never_feasible=formula.has_empty_hard,
        soft_falsified_weight=state.soft_falsified_weight,
        flips=state.flips,
        best_cost=0 if state.best_assign is None else state.best_cost,
        has_best=state.best_assign is not None,
        fh_len=len(state.falsified_hard),
        fs_len=len(state.falsified_soft),
        gv_len=len(state.good_vars),
        mt_index=rng_state[1][624],
    )
    for name, buf in bufs.items():
        setattr(st, name, buf.buffer_info()[0])
    if lib.fk_init(ctypes.byref(st)) != 0:
        lib.fk_free(ctypes.byref(st))
        return None
    return Kernel(lib, state, rng, st, bufs, rng_state)
