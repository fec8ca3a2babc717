"""The compile-once caches, and the indented-source builder the code
generators write with.

The pysim FSM backends (:mod:`repro.codegen.pysim`) and the cycle
kernels (:mod:`repro.rtl.kernel`) are both pure functions of their
generated source text, so each keeps a process-wide
:class:`SourceCache` keyed by the SHA-256 of that text
(:func:`source_key`): two builds of the same design (a harness sweep
rebuilding row after row, a server worker, a process-pool worker)
compile once.  FSM planning (:mod:`repro.core.fsmplan`) is a pure
function of the process, and keeps a third instance keyed by a digest
of the process itself.

Each cache has two tiers.

* **Memory.**  At most :data:`CAP` built objects per cache, the least
  recently used evicted past that.  Thread-safe -- harness sweeps and
  server workers build simulators concurrently.
* **Disk.**  On an in-memory miss, a plan is loaded from its pickle and
  a code object from its marshal image, under the same key; a build
  that does run writes what it made.  So a fresh interpreter (each
  ``python -m repro`` command, a spawned pool worker) reuses the plans
  and compiled code an earlier one built.  A disk hit counts as a miss
  of the memory tier; ``disk_hits``, ``disk_misses`` (no entry) and
  ``disk_rejected`` (an entry that could not be used) count the rest.

The disk tier adds no option of its own: it follows Python's bytecode
cache, since what it holds is compiled code too.  It is off under
``sys.dont_write_bytecode`` (``-B``, ``PYTHONDONTWRITEBYTECODE``), lives
under ``sys.pycache_prefix`` when that is set (``PYTHONPYCACHEPREFIX``),
and otherwise sits beside this package's own ``.pyc`` files, in
``__pycache__/compile-cache/``.  Both settings are read at the first
lookup.

Inside it there is one directory per *compiler digest*
(:func:`compiler_digest`: the SHA-256 of the package's ``.py`` sources
and :data:`importlib.util.MAGIC_NUMBER`), so a changed compiler never
reads what an old one wrote; making a new one removes the others.  The
live directory holds at most :data:`DISK_CAP` entries and removes the
oldest past that.  An entry is one plain header line -- format
version, compiler digest, magic number, kind, key, body length and the
body's SHA-256 -- and then the body.  It is written to a temporary file
and renamed into place, so concurrent writers never leave a torn entry.
A stale, foreign, truncated or corrupt entry, and a directory that
cannot be read or written, cost a rebuild and nothing else: nothing is
raised.

Entries are trusted input, like ``.pyc`` and checkpoint files: loading
one runs its code, so anyone who can write the directory can run code
in every process that reads it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pickle
import sys
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

#: entries each cache keeps in memory; past it the least recently used
#: is evicted
CAP = 128
#: entries the disk tier keeps for one compiler digest (all caches
#: together); past it the oldest are removed
DISK_CAP = 512
#: version of the entry layout: header and body encodings
DISK_FORMAT = 1

_TAG = b"repro-compile-cache"
_DISK_COUNTERS = ("disk_hits", "disk_misses", "disk_rejected")
_HEX = frozenset("0123456789abcdef")


class Emitter:
    """Tiny indented-source builder: ``line`` appends at the current
    indent (four spaces per level), ``push``/``pop`` change it."""

    def __init__(self):
        self.lines: List[str] = []
        self._indent = 1    # generated bodies live inside one function

    def line(self, text: str = ""):
        self.lines.append("    " * self._indent + text if text else "")

    def push(self):
        self._indent += 1

    def pop(self):
        self._indent -= 1


def source_key(source: str) -> str:
    """The cache key of a generated source: its SHA-256 hex digest."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the disk tier
# ---------------------------------------------------------------------------
def source_digest(package: str) -> str:
    """SHA-256 of every ``.py`` file under ``package`` (relative path,
    length and bytes, in sorted order) and the interpreter's bytecode
    magic number."""
    h = hashlib.sha256(importlib.util.MAGIC_NUMBER)
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                data = f.read()
            rel = os.path.relpath(path, package).replace(os.sep, "/")
            h.update(f"{rel}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


_DIGEST: Optional[str] = None


def compiler_digest() -> str:
    """:func:`source_digest` of this package, computed once per process
    (about 2 ms for its 0.8 MB of sources)."""
    global _DIGEST
    if _DIGEST is None:
        _DIGEST = source_digest(os.path.dirname(os.path.abspath(__file__)))
    return _DIGEST


class _Rejected(Exception):
    """An entry is there but cannot be used."""


class DiskTier:
    """The entries under ``root``: one directory per compiler digest,
    one file per ``(kind, key)``."""

    def __init__(self, root: str):
        self.root = root

    def live_dir(self) -> str:
        return os.path.join(self.root, compiler_digest())

    @staticmethod
    def _header(kind: str, key: str, body: bytes) -> bytes:
        return b" ".join((
            _TAG, str(DISK_FORMAT).encode(), compiler_digest().encode(),
            importlib.util.MAGIC_NUMBER.hex().encode(), kind.encode(),
            key.encode(), str(len(body)).encode(),
            hashlib.sha256(body).hexdigest().encode()))

    def read(self, kind: str, key: str) -> Optional[bytes]:
        """The body stored for ``(kind, key)``, or ``None`` when there is
        no entry.  Raises :class:`_Rejected` when there is one but its
        header is not the one this compiler would write for its body."""
        try:
            with open(os.path.join(self.live_dir(), f"{kind}-{key}"),
                      "rb") as f:
                data = f.read()
        except (FileNotFoundError, NotADirectoryError):
            return None
        except OSError as exc:
            raise _Rejected(str(exc))
        head, newline, body = data.partition(b"\n")
        if not newline or head != self._header(kind, key, body):
            raise _Rejected(kind)
        return body

    def write(self, kind: str, key: str, body: bytes) -> None:
        """Store ``body``: a temporary file renamed into place, then the
        oldest entries past :data:`DISK_CAP` removed.  Raises
        ``OSError`` when the directory cannot be written."""
        live = self.live_dir()
        self._make(live)
        path = os.path.join(live, f"{kind}-{key}")
        tmp = os.path.join(
            live, f".tmp-{os.getpid()}-{threading.get_ident()}-{kind}-{key}")
        try:
            with open(tmp, "wb") as f:
                f.write(self._header(kind, key, body) + b"\n" + body)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._evict(live)

    def _make(self, live: str) -> None:
        """Create the live directory; a new one removes the directories
        of every other compiler digest."""
        if os.path.isdir(live):
            return
        os.makedirs(live, exist_ok=True)
        import shutil

        mine = os.path.basename(live)
        for name in os.listdir(self.root):
            if name != mine and len(name) == 64 and set(name) <= _HEX:
                shutil.rmtree(os.path.join(self.root, name),
                              ignore_errors=True)

    @staticmethod
    def _evict(live: str) -> None:
        names = os.listdir(live)
        if len(names) <= DISK_CAP:
            return
        aged = []
        for name in names:
            try:
                aged.append((os.stat(os.path.join(live, name)).st_mtime_ns,
                             name))
            except OSError:
                pass        # removed by a concurrent writer
        aged.sort()
        for _mtime, name in aged[:len(aged) - DISK_CAP]:
            try:
                os.unlink(os.path.join(live, name))
            except OSError:
                pass


def _default_root() -> Optional[str]:
    """Where Python's bytecode-cache settings put the disk tier:
    nowhere under ``sys.dont_write_bytecode``, else the directory this
    module's ``.pyc`` goes to (under ``sys.pycache_prefix`` when set)."""
    if sys.dont_write_bytecode:
        return None
    try:
        pyc = importlib.util.cache_from_source(os.path.abspath(__file__))
    except (NotImplementedError, ValueError):
        return None     # no bytecode cache on this interpreter
    return os.path.join(os.path.dirname(pyc), "compile-cache")


_UNSET = object()
_tier = _UNSET
_tier_lock = threading.Lock()


def disk_tier() -> Optional[DiskTier]:
    """The process's disk tier, or ``None`` when it is off."""
    global _tier
    tier = _tier
    if tier is _UNSET:
        with _tier_lock:
            if _tier is _UNSET:
                root = _default_root()
                _tier = None if root is None else DiskTier(root)
            tier = _tier
    return tier


def set_disk_dir(root: Optional[str]) -> None:
    """Keep the disk tier under ``root`` (``None`` turns it off) rather
    than where Python's bytecode-cache settings put it (tests)."""
    global _tier
    with _tier_lock:
        _tier = None if root is None else DiskTier(os.fspath(root))


def reset_disk_dir() -> None:
    """Back to Python's bytecode-cache settings, read again at the next
    lookup (tests)."""
    global _tier
    with _tier_lock:
        _tier = _UNSET


# ---------------------------------------------------------------------------
# the caches
# ---------------------------------------------------------------------------
class SourceCache:
    """``key -> built object``, built at most once per distinct key
    while the entry lives, with the counters the benchmarks and the
    server's ``/stats`` read.

    ``kind`` names the cache's disk entries and ``dump`` turns a built
    object into an entry's body."""

    def __init__(self, kind: str, dump: Callable[[object], bytes]):
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._kind = kind
        self._dump = dump
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk = dict.fromkeys(_DISK_COUNTERS, 0)

    def get(self, key: Optional[str], build: Callable[[], object],
            load: Callable[[bytes], object]):
        """The object cached under ``key``; on a miss, ``load(body)`` of
        the disk entry under ``key`` when there is a usable one, else
        ``build()``, whose result is then written there (both outside
        the lock -- they can be slow).  A ``None`` key builds every
        time, stores nothing and counts a miss."""
        if key is None:
            built = build()
            with self._lock:
                self._misses += 1
            return built
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return hit
        built = self._cold(key, build, load)
        with self._lock:
            winner = self._entries.setdefault(key, built)
            # a concurrent caller may have built the same key first;
            # only the insertion counts as a miss, so hits + misses
            # always equals calls
            if winner is built:
                self._misses += 1
                if len(self._entries) > CAP:
                    self._entries.popitem(last=False)
                    self._evictions += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        return winner

    def _cold(self, key: str, build, load):
        """An in-memory miss: the disk tier, then the build."""
        tier = disk_tier()
        if tier is None:
            return build()
        try:
            body = tier.read(self._kind, key)
            if body is not None:
                loaded = load(body)
                self._count("disk_hits")
                return loaded
            self._count("disk_misses")
        except Exception:
            # _Rejected, or a body that passed the header check and
            # still does not load: either way the entry is unusable,
            # and a cache tier must never fail the build it serves
            self._count("disk_rejected")
        built = build()
        try:
            tier.write(self._kind, key, self._dump(built))
        except (OSError, pickle.PickleError, ValueError, TypeError,
                AttributeError, RecursionError):
            # an unwritable directory, or an object pickle or marshal
            # refuses: the entry is just not written
            pass
        return built

    def _count(self, counter: str) -> None:
        with self._lock:
            self._disk[counter] += 1

    def stats(self) -> Dict[str, int]:
        """``hits``/``misses``/``entries``/``evictions`` of the memory
        tier and ``disk_hits``/``disk_misses``/``disk_rejected`` of the
        disk tier."""
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "entries": len(self._entries),
                    "evictions": self._evictions, **self._disk}

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters (tests);
        the disk tier keeps its entries."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._disk = dict.fromkeys(_DISK_COUNTERS, 0)
