"""A *compilable* OpenMP C backend.

Where :mod:`repro.codegen.printer` renders display code, this backend emits
a complete, compiling C program from a schedule tree's executable loop nest
(:func:`repro.codegen.nest.scan` with the parameters fixed) and (when a C
compiler is available) builds and runs it.  Python and the executable
exchange tensors as raw row-major ``float64`` files, ``<name>.bin`` in and
``<name>.out.bin`` out, which the executable maps instead of copying, so
that its run time is the loop nest's.  The emitted code is exact *and* is
what the optimizer decided, by five cooperating rules:

* **Loops and guards.**  Loop bounds are the Fourier–Motzkin bounds of the
  member statements: per member the ``max`` of its lower bounds, over
  members the ``min`` of those (a union, possibly over-approximate; pieces
  of one statement are made disjoint first).  A statement instance runs
  iff its whole constraint system holds, and the renderer knows what its
  open loops already guarantee (every ``max``/``min`` operand it emitted;
  a tile loop's aligned start and stride as ``T = size * q``, so that
  ``T <= 255`` becomes ``T <= 224``).  A conjunct ``c`` is emitted as a
  guard only when ``context ∧ ¬c`` has a rational point, and a bound
  operand only when the other operands do not imply it: what is elided is
  implied, so over-approximated loops still skip exactly the non-instances
  and rectangular full-tile nests carry no ``if`` at all.
* **Promotion.**  A tensor written only by one extension node's
  statements, read only beneath that node, and neither live-in nor
  live-out (:func:`repro.codegen.promotion.scratch_sites`) is a
  thread-private buffer the size of its per-tile footprint box, indexed
  ``idx - origin(tile)`` (:func:`repro.codegen.promotion.tile_box`).  It
  stays a global array when no affine origin exists or the box would be as
  large as the tensor.
* **Liveness.**  Only tensors whose initial contents the program can
  observe (:func:`repro.codegen.promotion.live_in_tensors`) are taken from
  ``<name>.bin``; everything else starts zeroed.
* **Exchange.**  Tensors are mapped, not copied.  A live-in is a private
  mapping of its file (read-only and ``const`` unless a statement writes
  it, then copy-on-write: the file is never modified); a live-out is
  computed in a shared mapping of ``<name>.out.bin``, sized by
  ``ftruncate`` and first filled from ``<name>.bin`` when it is live-in
  too (a live-out is written everywhere or live-in, so a stale file needs
  no clearing).  Intermediates and per-tile buffers stay static arrays.
  The nest is one function, ``nest``, over the mapped tensors as
  ``restrict`` pointers to whole arrays (``double (*restrict A)[N][M]``,
  used as ``(*A)[i][j]``): gcc keeps what it knew of static arrays, that
  no two tensors overlap, and ``-fsanitize=bounds`` still checks every
  dimension.  ``main`` maps, calls ``nest`` and, given any argument,
  prints the call's duration as ``nest_ms <float>`` on stderr.  A failed
  exchange is an exit code with a message: 2 a missing input, 3 an input
  of the wrong size, 4 a mapping the system refused.
* **Parallel loops.**  A coincident outermost loop is ``#pragma omp
  parallel for`` unless an extension beneath it writes a tensor that stays
  a global array: every tile would rewrite it while a neighbour reads it,
  so that loop runs serially (``codegen.c.parallel_dropped.<why>``).

Statement dimensions are recovered from the band pin equalities.  The
round trip (generate → gcc -fopenmp → run → compare with the interpreter)
is exercised by the test suite, making this the repository's "the
generated code really runs" proof.
"""

from __future__ import annotations

import dataclasses
import os
import re
import shutil
import subprocess
import tempfile
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..ir import Affine, BinOp, Call, Const, Expr, Load, Program, REDUCE, TensorStore
from ..presburger import Constraint, LinExpr
from ..presburger.fm import projected_bounds
from ..schedule import DomainNode
from .nest import Extension, Leaf, Loop, Mark, Nest, Seq, inner, scan
from .promotion import TileBox, entails, live_in_tensors, sites_in, tile_box

HEADER = """\
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <time.h>
#include <fcntl.h>
#include <unistd.h>
#include <sys/mman.h>
#include <sys/stat.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#define ceild(n, d) (((n) >= 0) ? (((n) + (d) - 1) / (d)) : -((-(n)) / (d)))
#define floord(n, d) (((n) >= 0) ? ((n) / (d)) : -(((-(n)) + (d) - 1) / (d)))
#define max(a, b) ((a) > (b) ? (a) : (b))
#define min(a, b) ((a) < (b) ? (a) : (b))

static double relu_fn(double x) { return x > 0 ? x : 0.0; }
static double quant_fn(double x) { return (double)((long)(x * 8.0)) / 8.0; }
static double clamp01_fn(double x) { return x < 0 ? 0 : (x > 1 ? 1 : x); }
static double safe_log(double x) { return x > 0 ? log(x) : 0.0; }
static double safe_sqrt(double x) { return x > 0 ? sqrt(x) : 0.0; }
static double sigmoid_fn(double x) { return 1.0 / (1.0 + exp(-x)); }

static void *map_in(const char *path, long bytes, int prot) {
  struct stat st;
  int fd = open(path, O_RDONLY);
  if (fd < 0 || fstat(fd, &st) != 0) { fprintf(stderr, "missing %s\\n", path); exit(2); }
  if (st.st_size != bytes) {
    fprintf(stderr, "%s: expected %ld bytes, found %ld\\n", path, bytes, (long)st.st_size);
    exit(3);
  }
  void *at = mmap(NULL, bytes, prot, MAP_PRIVATE, fd, 0);
  if (at == MAP_FAILED) { perror(path); exit(4); }
  close(fd);
  return at;
}
static void *map_out(const char *path, long bytes, const char *init) {
  void *at = MAP_FAILED;
  int fd = open(path, O_RDWR | O_CREAT, 0644);
  if (fd >= 0 && ftruncate(fd, bytes) == 0)
    at = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (at == MAP_FAILED) { perror(path); exit(4); }
  close(fd);
  if (init) memcpy(at, map_in(init, bytes, PROT_READ), bytes);
  return at;
}
static double now_ms(void) {
  struct timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return 1e3 * t.tv_sec + 1e-6 * t.tv_nsec;
}
"""

INTRINSIC_C = {
    "relu": "relu_fn",
    "quant": "quant_fn",
    "exp": "exp",
    "log": "safe_log",
    "sqrt": "safe_sqrt",
    "abs": "fabs",
    "sigmoid": "sigmoid_fn",
    "clamp01": "clamp01_fn",
}

# Identifiers a tensor may not use in the emitted translation unit: C
# keywords, what HEADER declares or defines, ``nest`` and ``main``'s locals,
# and the file-scope names of the headers HEADER includes (glibc, default
# feature set; tests/test_cbackend.py checks the list against the headers
# here).
_MATH = (
    "acos acosh asin asinh atan atan2 atanh cbrt ceil copysign cos cosh drem "
    "erf erfc exp exp2 expm1 fabs fdim finite floor fma fmax fmin fmod frexp "
    "gamma hypot ilogb isinf isnan j0 j1 jn ldexp lgamma llrint llround log "
    "log10 log1p log2 logb lrint lround modf nan nearbyint nextafter "
    "nexttoward pow remainder remquo rint round scalb scalbln scalbn "
    "significand sin sinh sqrt tan tanh tgamma trunc y0 y1 yn"
)
_RESERVED = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    main ceild floord max min relu_fn quant_fn clamp01_fn safe_log safe_sqrt
    sigmoid_fn map_in map_out now_ms nest argc argv nest_ms
    FILE EOF NULL BUFSIZ RAND_MAX INFINITY NAN HUGE_VAL errno
    a64l abort abs aligned_alloc alloca arc4random arc4random_buf
    arc4random_uniform at_quick_exit atexit atof atoi atol atoll bcmp bcopy
    bsearch bzero calloc clearenv clearerr ctermid div dprintf drand48 ecvt
    erand48 exit explicit_bzero fclose fcvt fd_mask fd_set fdopen feof
    ferror fflush ffs ffsl ffsll fgetc fgetpos fgets fileno flockfile
    fmemopen fopen fprintf fputc fputs fread free freopen fscanf fseek
    fseeko fsetpos ftell ftello ftrylockfile funlockfile fwrite gcvt getc
    getchar getdelim getenv getline getloadavg getsubopt getw index
    initstate jrand48 l64a labs lcong48 ldiv llabs lldiv lrand48 malloc
    mblen mbstowcs mbtowc memccpy memchr memcmp memcpy memmove memset
    mkdtemp mkstemp mkstemps mktemp mrand48 nrand48 on_exit open_memstream
    pclose perror popen posix_memalign printf pselect putc putchar putenv
    puts putw qecvt qfcvt qgcvt qsort quick_exit rand random realloc
    reallocarray realpath remove rename renameat rewind rindex rpmatch scanf
    seed48 select setbuf setbuffer setenv setlinebuf setstate setvbuf
    signgam snprintf sprintf srand srand48 srandom sscanf stderr stdin
    stdout stpcpy stpncpy strcasecmp strcat strchr strcmp strcoll strcpy
    strcspn strdup strerror strlen strncasecmp strncat strncmp strncpy
    strndup strnlen strpbrk strrchr strsep strsignal strspn strstr strtod
    strtof strtok strtol strtold strtoll strtoq strtoul strtoull strtouq
    strxfrm system tempnam tmpfile tmpnam u_char u_int u_long u_short uint
    ulong ungetc unsetenv ushort va_list valloc vdprintf vfprintf vfscanf
    vprintf vscanf vsnprintf vsprintf vsscanf wcstombs wctomb
    drand48_r ecvt_r erand48_r fcvt_r initstate_r jrand48_r lcong48_r
    lgamma_r lgammaf_r lgammal_r lrand48_r mrand48_r nrand48_r qecvt_r
    qfcvt_r rand_r random_r seed48_r setstate_r srand48_r srandom_r
    strerror_r strtok_r tmpnam_r strcasecmp_l strcoll_l strerror_l
    strncasecmp_l strxfrm_l
    access acct alarm asctime asctime_r brk chdir chmod chown chroot clock
    clock_getcpuclockid clock_getres clock_gettime clock_nanosleep
    clock_settime close closefrom confstr creat crypt ctime ctime_r daemon
    daylight difftime dup dup2 dysize endusershell execl execle execlp execv
    execve execvp faccessat fchdir fchmod fchmodat fchown fchownat fcntl
    fdatasync fexecve fork fpathconf fstat fstatat fsync ftruncate futimens
    getcwd getdomainname getdtablesize getegid getentropy geteuid getgid
    getgroups gethostid gethostname getlogin getlogin_r getopt getpagesize
    getpass getpgid getpgrp getpid getppid getsid getuid getusershell getwd
    gmtime gmtime_r isatty lchmod lchown link linkat localtime localtime_r
    lockf lseek lstat madvise mincore mkdir mkdirat mkfifo mkfifoat mknod
    mknodat mktime mlock mlockall mmap mprotect msync munlock munlockall
    munmap nanosleep nice open openat optarg opterr optind optopt pathconf
    pause pipe posix_fadvise posix_fallocate posix_madvise pread profil
    pwrite read readlink readlinkat revoke rmdir sbrk setdomainname setegid
    seteuid setgid sethostid sethostname setlogin setpgid setpgrp setregid
    setreuid setsid setuid setusershell shm_open shm_unlink sleep stat
    strftime strftime_l symlink symlinkat sync syscall sysconf tcgetpgrp
    tcsetpgrp time timegm timelocal timer_create timer_delete
    timer_getoverrun timer_gettime timer_settime timespec_get timezone
    truncate ttyname ttyname_r ttyslot tzname tzset ualarm umask unlink
    unlinkat usleep utimensat vfork vhangup write
    """.split()
) | {base + suffix for base in _MATH.split() for suffix in ("", "f", "l")}
# Whole families: implementation names, OpenMP and pthread, POSIX's
# ``*_t`` types and stdio's ``*_unlocked`` variants, our own loop vars, the
# flag macros of <fcntl.h>, <sys/mman.h>, <sys/stat.h> and <time.h>.
_RESERVED_SHAPE = re.compile(
    r"_|omp_|pthread_|c\d+_|.*_(t|unlocked)$"
    r"|(O|F|FD|AT|S|PROT|MAP|MADV|MS|MCL|CLOCK|TIMER)_[A-Z0-9_]+$"
)


def is_reserved(name: str) -> bool:
    """Whether a tensor called ``name`` would not compile under its own name."""
    return name in _RESERVED or _RESERVED_SHAPE.match(name) is not None


def c_names(tensors: Iterable[str]) -> Dict[str, str]:
    """The C identifier of each tensor: its own name, or — the one mangling
    rule — ``t_<name>_`` (more underscores while that is taken) when the
    name is reserved.  File names keep the tensor's name."""
    tensors = list(tensors)
    taken = set(tensors)
    out: Dict[str, str] = {}
    for name in tensors:
        ident = name
        if is_reserved(name):
            ident = f"t_{name}_"
            while ident in taken:
                ident += "_"
            taken.add(ident)
        out[name] = ident
    return out


class CBackendError(RuntimeError):
    pass


def _linexpr_c(e: LinExpr, env: Mapping[str, str]) -> str:
    parts: List[str] = []
    for sym in sorted(e.coeffs):
        c = e.coeffs[sym]
        ref = env.get(sym, sym)
        term = f"({ref})" if not ref.isidentifier() else ref
        if c == 1:
            parts.append(f"+ {term}")
        elif c == -1:
            parts.append(f"- {term}")
        elif c > 0:
            parts.append(f"+ {c} * {term}")
        else:
            parts.append(f"- {-c} * {term}")
    if e.const or not parts:
        parts.append(f"+ {e.const}" if e.const >= 0 else f"- {-e.const}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else f"-{text[2:]}" if text.startswith("- ") else text


def generate_c(
    tree: DomainNode,
    program: Program,
    params: Optional[Mapping[str, int]] = None,
) -> str:
    """A complete C program implementing the tree's schedule.

    Live-in tensors are mapped from ``<name>.bin`` (row-major float64) and
    live-out tensors are computed in place in ``<name>.out.bin``.
    """
    return _generate_c(tree, program, params)[0]


def _generate_c(
    tree: DomainNode,
    program: Program,
    params: Optional[Mapping[str, int]] = None,
) -> Tuple[str, Tuple[str, ...]]:
    """The source, and the tensors it reads from disk."""
    with obs.span("codegen.generate_c"):
        params = dict(program.params, **(params or {}))
        try:
            shapes = {
                name: t.concrete_shape(params) for name, t in program.tensors.items()
            }
        except ValueError as exc:
            # e.g. a pyramid level that collapses to extent 0 at this size
            raise CBackendError(f"cannot allocate: {exc}") from exc
        live_in = live_in_tensors(program, params)
        mapped = [t for t in program.tensors if t in live_in or t in program.liveout]
        nest = scan(tree, program, params)
        sites, kept = sites_in(nest, program, live_in)
        dropped: Dict[str, List[str]] = {}
        while True:
            body = _CBody(program, params, shapes, sites, dict(kept), mapped)
            body.render(nest, 1)
            if body.demoted:
                # FM could not bound some load inside the buffer: keep the
                # tensor global and emit again.
                for tensor in body.demoted:
                    del sites[tensor]
                    kept[tensor] = "read not provably inside its box"
                continue
            serial = _race_free(nest, program, body.kept, dropped)
            if serial is nest:
                break
            nest = serial
        source = body.source(live_in)
        scratch_bytes = 8 * sum(box.elems for box in body.scratch.values())
        obs.annotate(
            guards_kept=body.guards_kept,
            guards_elided=body.guards_elided,
            bounds_simplified=body.bounds_simplified,
            promoted_buffers=len(body.scratch),
            scratch_bytes=scratch_bytes,
            tensors_read=len(live_in),
            not_promoted="; ".join(f"{t}: {why}" for t, why in body.kept.items()),
            parallel_dropped="; ".join(f"{v}: {', '.join(ts)}" for v, ts in dropped.items()),
        )
        obs.count("codegen.c.guards_kept", body.guards_kept)
        obs.count("codegen.c.guards_elided", body.guards_elided)
        obs.count("codegen.c.bounds_simplified", body.bounds_simplified)
        obs.count("codegen.c.promoted_buffers", len(body.scratch))
        obs.count("codegen.c.scratch_bytes", scratch_bytes)
        obs.count("codegen.c.tensors_read", len(live_in))
        for why in body.kept.values():
            obs.count(f"codegen.c.not_promoted.{why.replace(' ', '_')}")
        for shared in dropped.values():
            obs.count(f"codegen.c.parallel_dropped.{body.kept[shared[0]].replace(' ', '_')}")
        return source, live_in


def _race_free(
    node: Nest, program: Program, kept: Mapping[str, str], dropped: Dict[str, List[str]]
) -> Nest:
    """``node`` with every parallel loop made serial beneath which an
    extension's added statements write a tensor that stays global: each
    tile would rewrite it while a neighbour reads it.  ``dropped`` gains
    loop var -> those tensors.  Only sequences and marks are rebuilt: a
    parallel loop has no enclosing loop and an extension scope has one."""
    if isinstance(node, Loop) and node.parallel:
        written = _extension_writes(node.body, program)
        shared = [t for t in kept if t in written]
        if shared:
            dropped[node.var] = shared
            return dataclasses.replace(node, parallel=False)
    elif isinstance(node, (Seq, Mark)):
        below = tuple(_race_free(c, program, kept, dropped) for c in inner(node))
        if any(a is not b for a, b in zip(below, inner(node))):
            return Seq(below) if isinstance(node, Seq) else Mark(node.mark, *below)
    return node


def _extension_writes(node: Nest, program: Program) -> List[str]:
    """The tensors that extension scopes in ``node`` write."""
    found: List[str] = []
    if isinstance(node, Extension):
        found += [program.statement(s).tensor_written() for s in node.added]
    for child in inner(node):
        found += _extension_writes(child, program)
    return found


def _connected(hypotheses: Sequence[Constraint], c: Constraint) -> List[Constraint]:
    """The hypotheses that share symbols with ``c``, transitively: the rest
    cannot take part in a refutation of ``¬c``."""
    syms = set(c.expr.symbols())
    picked: List[Constraint] = []
    pool = [(h, h.expr.symbols()) for h in hypotheses]
    grew = True
    while grew and pool:
        grew = False
        rest = []
        for h, h_syms in pool:
            if syms.isdisjoint(h_syms):
                rest.append((h, h_syms))
            else:
                picked.append(h)
                syms.update(h_syms)
                grew = True
        pool = rest
    return picked


class _CBody:
    """Renders a loop nest as exact C loops with only the needed guards."""

    def __init__(
        self,
        program: Program,
        params: Mapping[str, int],
        shapes: Mapping[str, Tuple[int, ...]],
        sites: Mapping[str, Extension],
        kept: Dict[str, str],
        mapped: Sequence[str],
    ):
        self.program = program
        self.params = dict(params)
        self.shapes = shapes
        self.names = c_names(program.tensors)
        self.mapped = mapped                  # parameters of ``nest``
        self.sites = sites
        self.kept = kept                      # tensor -> why it stays global
        self.scratch: Dict[str, TileBox] = {}  # promoted, origin in loop vars
        self.demoted: List[str] = []
        self.lines: List[str] = []
        # What the open loops guarantee, over loop vars; a tile loop var T
        # appears as size * q (self.tiles[T] = (q, size)), so that GCD
        # normalisation sees the stride.
        self.context: List[Constraint] = []
        self.tiles: Dict[str, Tuple[str, int]] = {}
        self._strided_memo: Dict[Constraint, Constraint] = {}
        self.guards_kept = 0
        self.guards_elided = 0
        self.bounds_simplified = 0

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    # -- what the context implies -------------------------------------------

    def _strided(self, c: Constraint) -> Constraint:
        """``c`` with every tile loop var ``T`` written as ``size * q``."""
        out = self._strided_memo.get(c)
        if out is None:
            out = self._strided_memo[c] = c.substitute(
                {var: LinExpr({q: size}) for var, (q, size) in self.tiles.items()}
            )
        return out

    def implies(self, c: Constraint, extra: Sequence[Constraint] = ()) -> bool:
        """Whether the open loops (and ``extra``) guarantee ``c``."""
        c = self._strided(c)
        if c.is_trivially_true():
            return True
        hypotheses = self.context + [self._strided(e) for e in extra]
        # Most queries repeat a loop bound, possibly with a weaker constant.
        if c.kind == ">=" and any(
            h.kind == ">="
            and h.expr.terms == c.expr.terms
            and h.expr.const <= c.expr.const
            for h in hypotheses
        ):
            return True
        return entails(_connected(hypotheses, c), c)

    def _needed(
        self, bounds: Sequence[Constraint], others: Sequence[Constraint]
    ) -> List[Constraint]:
        """``bounds`` minus every operand the remaining ones, ``others`` (the
        opposite side) and the context imply: same iterations, fewer terms."""
        kept = list(bounds)
        for b in bounds:
            rest = [k for k in kept if k is not b]
            if rest and self.implies(b, rest + list(others)):
                kept = rest
                self.bounds_simplified += 1
        return kept

    def _extreme(
        self, members: Sequence[Tuple[Constraint, ...]]
    ) -> List[Tuple[Constraint, ...]]:
        """The members that can set one side of a union's range: a member
        is dropped when its operands imply all of another's (its lower
        bound is never the smallest, its upper bound never the largest)."""
        kept = list(dict.fromkeys(members))
        for m in list(kept):
            others = [o for o in kept if o is not m]
            if any(all(self.implies(a, m) for a in o) for o in others):
                kept = others
        return kept

    # -- rendering ---------------------------------------------------------

    def render(self, node: Nest, depth: int) -> None:
        if isinstance(node, Leaf):
            for piece in node.pieces:
                self._emit_statement(piece.stmt, piece.system, depth)
        elif isinstance(node, Loop):
            self._emit_loop(node, depth)
        else:
            if isinstance(node, Extension):
                for tensor, site in self.sites.items():
                    if site is node:
                        self._promote(tensor, node)
            for child in inner(node):
                self.render(child, depth)

    def _promote(self, tensor: str, scope: Extension) -> None:
        """Give ``tensor`` a per-tile buffer if its footprint has a box."""
        writes = [
            (
                [self._strided(c) for c in piece.system],
                [i.substitute(self.params) for i in stmt.lhs.indices],
            )
            for stmt in self.program.writers_of(tensor)
            for piece in scope.pieces
            if piece.stmt == stmt.name
        ]
        outer = [self.tiles[v][0] if v in self.tiles else v for v in scope.outer]
        box = tile_box(writes, outer)
        full = int(np.prod(self.shapes[tensor]))
        if box is None:
            self.kept[tensor] = "non-affine origin"
        elif box.elems >= full:
            self.kept[tensor] = "box as large as the tensor"
        else:
            self.scratch[tensor] = TileBox(
                tuple(self._unstrided(o) for o in box.origin), box.shape
            )

    def _unstrided(self, e: LinExpr) -> LinExpr:
        """``e`` with ``size * q`` folded back into the tile loop var; a
        ``q`` that is left renders as ``T / size``."""
        for var, (q, size) in self.tiles.items():
            k = e.coeff(q)
            if k and k % size == 0:
                e = e + LinExpr({var: k // size, q: -k})
        return e

    def _bounds(
        self, system: Sequence[Constraint], var: str, outer: Sequence[str]
    ) -> Tuple[Tuple[Constraint, ...], Tuple[Constraint, ...]]:
        """The needed lower and upper bounds of ``var`` under ``system``."""
        lowers: List[Constraint] = []
        uppers: List[Constraint] = []
        for c in projected_bounds(system, var, outer):
            a = c.coeff(var)
            if c.kind == "==" or a > 0:
                lowers.append(Constraint(c.expr if a > 0 else -c.expr, ">="))
            if c.kind == "==" or a < 0:
                uppers.append(Constraint(c.expr if a < 0 else -c.expr, ">="))
        lowers = self._needed(lowers, uppers)
        uppers = self._needed(uppers, lowers)
        return tuple(lowers), tuple(uppers)

    def _emit_loop(self, loop: Loop, depth: int) -> None:
        var, size = loop.var, loop.size
        kv = LinExpr.var(var)
        # One member per statement piece the dimension scans: the loop
        # covers the union of their ranges.
        members = [
            self._bounds([*m.system, Constraint.eq(kv - m.row)], var, loop.outer)
            for m in loop.members
        ]
        if not members or any(not lo or not hi for lo, hi in members):
            raise CBackendError(f"unbounded band dimension {loop.dim}")
        lowers = self._extreme([lo for lo, _ in members])
        uppers = self._extreme([hi for _, hi in members])
        lo_text = _union_c(lowers, var, "max", "min")
        hi_text = _union_c(uppers, var, "min", "max")
        init = lo_text
        if size is not None:
            # align tile origins to the global grid
            init = f"floord({lo_text}, {size}) * {size}"
            if re.fullmatch(r"-?\d+", lo_text):
                init = str(int(lo_text) // size * size)
        step = f" += {size}" if size else "++"
        if loop.parallel:
            self.emit(depth, "#pragma omp parallel for")
        self.emit(
            depth,
            f"for (long {var} = {init}; {var} <= {hi_text}; {var}{step}) {{",
        )
        # Only what every member guarantees holds in every iteration.
        lows = [c for c in lowers[0] if all(c in m for m in lowers)]
        highs = [c for c in uppers[0] if all(c in m for m in uppers)]
        if size is not None:
            # var + size - 1 >= each lower bound; var is a multiple of size
            lows = [c.substitute({var: kv + (size - 1)}) for c in lows]
            self.tiles[var] = (f"{var}_q", size)
            self._strided_memo = {}
        n_context = len(self.context)
        self.context.extend(self._strided(c) for c in lows + highs)
        self.render(loop.body, depth + 1)
        del self.context[n_context:]
        if self.tiles.pop(var, None):
            self._strided_memo = {}
        self.emit(depth, "}")

    def _emit_statement(self, sname: str, cons: Sequence[Constraint], depth: int) -> None:
        stmt = self.program.statement(sname)
        solved: Dict[str, LinExpr] = {}
        # Iteratively solve pin equalities (a dim may be defined via another
        # solved dim, e.g. upsample's h through 2h + dh == k).
        changed = True
        while changed:
            changed = False
            for c in cons:
                if c.kind != "==":
                    continue
                unsolved = [
                    s
                    for s in c.expr.symbols()
                    if s in stmt.dims and s not in solved
                ]
                if len(unsolved) != 1:
                    continue
                dim = unsolved[0]
                a = c.coeff(dim)
                if abs(a) != 1:
                    continue
                rest = (c.expr - LinExpr({dim: a})).substitute(solved)
                solved[dim] = (-rest) if a == 1 else rest
                changed = True
        missing = [d for d in stmt.dims if d not in solved]
        if missing:
            raise CBackendError(
                f"cannot solve dims {missing} of {sname} from band equalities"
            )
        facts = list(dict.fromkeys(c.substitute(solved) for c in cons))
        if any(c.is_trivially_false() for c in facts):
            return  # statically infeasible piece
        facts = [c for c in facts if not c.is_trivially_true()]
        guards = [c for c in facts if not self.implies(c)]
        self.guards_kept += len(guards)
        self.guards_elided += len(facts) - len(guards)

        q_text = {q: f"{var} / {size}" for var, (q, size) in self.tiles.items()}

        def ref(load: Load) -> str:
            index = [i.substitute(self.params).substitute(solved) for i in load.indices]
            box = self.scratch.get(load.tensor)
            if box is not None:
                index = [i - o for i, o in zip(index, box.origin)]
                if load is not stmt.lhs and not all(
                    self.implies(Constraint.ge(i), facts)
                    and self.implies(Constraint.le(i, extent - 1), facts)
                    for i, extent in zip(index, box.shape)
                ) and load.tensor not in self.demoted:
                    self.demoted.append(load.tensor)
            name = self.names[load.tensor]
            if load.tensor in self.mapped:
                name = f"(*{name})"
            return name + "".join(f"[{_linexpr_c(i, q_text)}]" for i in index)

        env = {d: _linexpr_c(e, {}) for d, e in solved.items()}
        rhs = self._render(stmt.rhs, env, ref)
        op = "+=" if stmt.kind == REDUCE else "="
        guard = " && ".join(
            f"({_linexpr_c(c.expr, {})}) {c.kind} 0" for c in guards
        )
        prefix = f"if ({guard}) " if guards else ""
        self.emit(depth, f"{prefix}{ref(stmt.lhs)} {op} {rhs};")

    def _render(self, expr: Expr, env: Mapping[str, str], ref) -> str:
        """A statement RHS as a C expression: ``env`` maps iterator names
        to C expressions, ``ref`` renders a tensor element."""
        if isinstance(expr, Const):
            return repr(float(expr.value))
        if isinstance(expr, Affine):
            return _linexpr_c(expr.expr, env)
        if isinstance(expr, Load):
            return ref(expr)
        if isinstance(expr, BinOp):
            lhs = self._render(expr.lhs, env, ref)
            rhs = self._render(expr.rhs, env, ref)
            if expr.op in ("min", "max"):
                return f"f{expr.op}({lhs}, {rhs})"
            return f"({lhs} {expr.op} {rhs})"
        if isinstance(expr, Call):
            fn = INTRINSIC_C.get(expr.fn)
            if fn is None:
                raise CBackendError(f"no C lowering for intrinsic {expr.fn!r}")
            args = ", ".join(self._render(a, env, ref) for a in expr.args)
            return f"{fn}({args})"
        raise CBackendError(f"cannot lower {type(expr).__name__} to C")

    # -- the translation unit ------------------------------------------------

    def source(self, live_in: Sequence[str]) -> str:
        """The unmapped arrays, ``nest`` around the walked body, and a
        ``main`` that maps the other tensors, calls it and times the call."""
        program = self.program

        def pointer(name: str, qualifier: str = "") -> str:
            const = "" if program.writers_of(name) else "const "
            dims = "".join(f"[{e}]" for e in self.shapes[name])
            return f"{const}double (*{qualifier}{self.names[name]}){dims}"

        lines: List[str] = [HEADER]
        for name in program.tensors:
            if name in self.mapped:
                continue
            box = self.scratch.get(name)
            dims = "".join(f"[{e}]" for e in (box.shape if box else self.shapes[name]))
            lines.append(f"static double {self.names[name]}{dims};")
            if box is not None:
                # one buffer per thread: a tile runs on one thread
                lines.append(f"#pragma omp threadprivate({self.names[name]})")
        lines.append("")
        params = ", ".join(pointer(name, "restrict ") for name in self.mapped)
        lines.append(f"static void nest({params}) {{")
        lines.extend(self.lines)
        lines.append("}")
        lines.append("")
        lines.append("int main(int argc, char **argv) {")
        for name in self.mapped:
            size = f"{8 * int(np.prod(self.shapes[name]))}L"
            if name in program.liveout:
                init = f'"{name}.bin"' if name in live_in else "NULL"
                mapping = f'map_out("{name}.out.bin", {size}, {init})'
            else:
                prot = "PROT_READ | PROT_WRITE" if program.writers_of(name) else "PROT_READ"
                mapping = f'map_in("{name}.bin", {size}, {prot})'
            lines.append(f"  {pointer(name)} = {mapping};")
        lines.append("  double nest_ms = now_ms();")
        lines.append(f"  nest({', '.join(self.names[name] for name in self.mapped)});")
        lines.append("  nest_ms = now_ms() - nest_ms;")
        lines.append('  if (argc > 1) fprintf(stderr, "nest_ms %.3f\\n", nest_ms);')
        lines.append("  return 0;")
        lines.append("}")
        return "\n".join(lines)


def _bound_c(c: Constraint, var: str) -> str:
    """The bound ``c`` puts on ``var`` (``a * var + rest >= 0``) as C."""
    a = c.coeff(var)
    rest = c.expr - LinExpr({var: a})
    if a > 0:
        text = _linexpr_c(-rest, {})
        return text if a == 1 else f"ceild({text}, {a})"
    text = _linexpr_c(rest, {})
    return text if a == -1 else f"floord({text}, {-a})"


def _union_c(
    members: Sequence[Tuple[Constraint, ...]], var: str, within: str, across: str
) -> str:
    """One side of a loop covering every member's range: ``within`` (max
    for lower bounds) combines one member's operands, ``across`` (min)
    the members."""
    return _combine_c(
        [_combine_c([_bound_c(c, var) for c in m], within) for m in members], across
    )


def _combine_c(parts: List[str], fn: str) -> str:
    out = parts[0]
    for p in parts[1:]:
        out = f"{fn}({out}, {p})"
    return out


# ---------------------------------------------------------------------------
# compile & run


def compiler_available() -> bool:
    return shutil.which("gcc") is not None or shutil.which("cc") is not None


def compile_and_run(
    tree: DomainNode,
    program: Program,
    store: TensorStore,
    params: Optional[Mapping[str, int]] = None,
    keep_dir: Optional[str] = None,
    openmp: bool = True,
) -> Dict[str, np.ndarray]:
    """Generate, compile (gcc -O2 [-fopenmp]), execute, collect live-outs.

    ``store`` provides the input tensor contents; the returned dict maps
    live-out tensor names to the arrays the C program produced.  Under
    OpenMP a loop whose tiles would all rewrite one global array
    (covariance's ``mean``) is emitted serial, so both builds compute the
    same values; ``openmp=False`` is for callers that time the result.

    A failed exchange (exit code 2, 3 or 4, see the module docstring) is a
    :class:`CBackendError` carrying the executable's message.  Live-outs
    are written through a mapping of a sparse file, so a disk that fills
    during the run is a ``SIGBUS`` (return code -7), not a short file.
    """
    params = dict(program.params, **(params or {}))
    source, live_in = _generate_c(tree, program, params)
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise CBackendError("no C compiler available")
    workdir = keep_dir or tempfile.mkdtemp(prefix="repro_c_")
    try:
        os.makedirs(workdir, exist_ok=True)
        src_path = os.path.join(workdir, "kernel.c")
        with open(src_path, "w") as f:
            f.write(source)
        exe = os.path.join(workdir, "kernel")
        cmd = [cc, "-O2", src_path, "-o", exe, "-lm"]
        if openmp:
            cmd.insert(2, "-fopenmp")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise CBackendError(f"compilation failed:\n{proc.stderr}\n--- source ---\n{source}")
        for name in live_in:
            # no copy when the store already holds float64
            np.asarray(store[name], dtype=np.float64).tofile(
                os.path.join(workdir, f"{name}.bin")
            )
        proc = subprocess.run([exe], cwd=workdir, capture_output=True, text=True)
        if proc.returncode != 0:
            raise CBackendError(f"execution failed ({proc.returncode}): {proc.stderr}")
        out: Dict[str, np.ndarray] = {}
        for t in program.liveout:
            shape = program.tensors[t].concrete_shape(params)
            out[t] = np.fromfile(
                os.path.join(workdir, f"{t}.out.bin"), dtype=np.float64
            ).reshape(shape)
        return out
    finally:
        if keep_dir is None:
            shutil.rmtree(workdir, ignore_errors=True)
