"""The compiled step loop, its build, and the hand-over with the Python engine.

``_kernel.c`` is a port of the search loop: ``SearchState.flip``,
``update_weights`` and ``probed_positive_scores``, the ``IndexedSet``
operations, and the step function of :mod:`fps_maxsat.solver`,
``fps_step``, together with CPython's MT19937 generator.  It makes the
same random draws in the same order, so a run takes the same trajectory,
and prints the same bytes, with either engine.  The Python engine is the
reference: a change to an update rule must be made in both, and the
differential tests compare them.  The weighting constants the kernel
takes are the three of :class:`~fps_maxsat.weighting.WeightingParams`.

:func:`load` compiles the source on first use with the C compiler Python
was built with, into the package's ``__pycache__`` under a name keyed by
the source hash, and loads it with ctypes; later processes reuse the
build, and a new build removes those of other versions of the source.
When there is no compiler, or the build fails, it returns None and
the Python engine runs.  :func:`attach` hands the kernel a formula's
arrays, which it reads in place, and a copy of a ``random.Random``; the
kernel builds the initial state itself.  :meth:`Kernel.state` copies the
search state out into a :class:`SearchState` and the generator, for the
Python engine to carry on from.
"""

from __future__ import annotations

import ctypes
import os
import random
import zlib
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from .formula import INFEASIBLE, Formula

if TYPE_CHECKING:
    from .engine import SearchState
    from .solver import SolverConfig
    from .weighting import WeightingParams

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
#: Never a fast-math flag: the kernel must round floats as Python does.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: Libraries, placed after the source on the compile line (``pow``).
LDLIBS = ("-lm",)

# fk_run results (the FK_* enum in _kernel.c)
BUDGET, IMPROVED, SLICE, DONE, HANDBACK = range(5)
#: Longest stretch of search between two returns to Python, so signal
#: handlers and the stop flag are served promptly.  The kernel reads the
#: clock every few steps, so a slice ends within about one read interval
#: (tens of microseconds) of this.
SLICE_S = 0.01

_INT32_MAX = 2**31 - 1
_INT64_MAX = 2**63 - 1
#: Weights, scores and costs stay below this bound in the kernel.
WEIGHT_BOUND = 2**62


# fk_init results other than FK_OK (the enum in _kernel.c)
_NOMEM = -1


class _State(ctypes.Structure):
    """``struct fk_state`` of _kernel.c, field for field."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in (
            "n", "m", "mode", "sc_num", "sv_num", "hard_weight", "soft_cap",
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


def _read(address: Optional[int], typecode: str, count: int) -> array:
    """A copy of ``count`` items of kernel memory."""
    items = array(typecode)
    if count:
        items.frombytes(ctypes.string_at(address, count * items.itemsize))
    return items


class Kernel:
    """A search run held by the compiled kernel.

    It offers what :func:`fps_maxsat.solver.solve` reads of a
    :class:`SearchState`: ``best_cost``, ``flips`` and
    ``best_assignment()``.  The generator handed to :func:`attach` is
    left as it was until :meth:`state` copies the kernel's back into it.
    """

    def __init__(self, lib, formula: Formula, weighting: WeightingParams,
                 rng: random.Random, st: _State, mt: array,
                 rng_state: tuple) -> None:
        self._lib = lib
        self._formula = formula  # owns the arrays st reads
        self._weighting = weighting
        self._rng = rng
        self._st = st
        self._mt = mt  # the generator words st advances
        self._rng_state = rng_state

    @property
    def best_cost(self):
        st = self._st
        return st.best_cost if st.has_best else INFEASIBLE

    @property
    def flips(self) -> int:
        return self._st.flips

    def best_assignment(self) -> Optional[List[bool]]:
        """Copy of the best feasible assignment seen, or None."""
        st = self._st
        if not st.has_best:
            return None
        return list(map(bool, _read(st.best_assign, "b", st.n + 1)[1:]))

    def run(self, max_flips: Optional[int], remaining_s: float) -> int:
        """Search until a budget, an improvement, or the end of a slice.

        Returns one of BUDGET, IMPROVED, SLICE, DONE (nothing to do) and
        HANDBACK (the next step could overflow; the Python engine must take
        over from ``detach()``).
        """
        limit = -1 if max_flips is None else min(max_flips, _INT64_MAX)
        return self._lib.fk_run(ctypes.byref(self._st), limit, remaining_s,
                                SLICE_S)

    def state(self) -> SearchState:
        """The kernel's search state as a SearchState, and its generator
        state copied into the ``random.Random``; the kernel runs on."""
        from .engine import IndexedSet, SearchState

        st = self._st
        n1, m = st.n + 1, st.m
        state = SearchState(
            self._formula, self._weighting,
            assignment=list(map(bool, _read(st.assign, "b", n1)[1:])),
        )
        state.dyn_weight[:] = _read(st.dyn_weight, "q", m).tolist()
        state.score[:] = _read(st.score, "q", n1).tolist()
        state.sat_count[:] = _read(st.sat_count, "i", m).tolist()
        state.tv[:] = _read(st.tv, "i", m).tolist()
        state.falsified_hard = IndexedSet(_read(st.fh_items, "i", st.fh_len))
        state.falsified_soft = IndexedSet(_read(st.fs_items, "i", st.fs_len))
        state.good_vars = IndexedSet(_read(st.gv_items, "i", st.gv_len))
        state.soft_falsified_weight = st.soft_falsified_weight
        state.flips = st.flips
        state.best_cost = self.best_cost
        state.best_assign = (
            None if not st.has_best
            else list(map(bool, _read(st.best_assign, "b", n1)))
        )
        version, gauss_next = self._rng_state
        self._rng.setstate(
            (version, tuple(self._mt) + (st.mt_index,), gauss_next)
        )
        return state

    def free(self) -> None:
        """Release the kernel's memory; the Kernel is unusable after."""
        self._lib.fk_free(ctypes.byref(self._st))

    def detach(self) -> SearchState:
        """:meth:`state`, then :meth:`free`."""
        state = self.state()
        self.free()
        return state


def attach(
    formula: Formula,
    weighting: WeightingParams,
    config: SolverConfig,
    rng: random.Random,
) -> Optional[Kernel]:
    """A kernel run of ``formula`` from the state ``SearchState(formula,
    weighting, rng)`` would start in, or None to stay in Python.

    None when the kernel cannot be built, or when the instance is outside
    what int32 indices and int64 arithmetic can hold exactly: more than
    2**31 - 1 variables, clauses or literals, a total soft weight of
    2**62 or more, or weights so large relative to the occurrence counts
    that a score could overflow.  Raises MemoryError when the kernel
    cannot allocate the state.  ``rng`` is only read.
    """
    from .solver import MODES

    lib = load()
    if lib is None:
        return None
    wp = weighting
    lits, lit_start = formula.lits, formula.lit_start
    n, m = formula.num_vars, formula.num_clauses
    if not all(isinstance(a, array) and a.itemsize == 4
               for a in (lits, lit_start)):
        return None
    if sum(formula.soft_weight) + formula.soft_offset >= WEIGHT_BOUND:
        return None
    if max(n, m) > _INT32_MAX or wp.hard_weight >= WEIGHT_BOUND:
        return None
    if max(config.sc_num, config.sv_num) > _INT64_MAX:
        return None
    version, words, gauss_next = rng.getstate()
    mt = array("I", words[:624])
    st = _State(
        n=n,
        m=m,
        mode=MODES.index(config.mode),
        sc_num=config.sc_num,
        sv_num=config.sv_num,
        hard_weight=wp.hard_weight,
        soft_cap=min(wp.soft_cap, _INT64_MAX),
        sp=wp.sp,
        offset=formula.soft_offset,
        never_feasible=formula.has_empty_hard,
        mt_index=words[624],
        mt=mt.buffer_info()[0],
        lit_start=lit_start.buffer_info()[0],
        lits=lits.buffer_info()[0],
        soft_weight=formula.soft_weight.buffer_info()[0],
    )
    status = lib.fk_init(ctypes.byref(st))
    if status != 0:
        lib.fk_free(ctypes.byref(st))
        if status == _NOMEM:
            raise MemoryError("the kernel cannot allocate the search state")
        return None
    return Kernel(lib, formula, wp, rng, st, mt, (version, gauss_next))
