"""Content-addressed on-disk cache of completed simulation results.

A sweep cell is fully determined by its :class:`~repro.engine.spec.JobSpec`
(workload spec + protocol + every ``GPUConfig`` field + scheduler) and by
the simulator's code version. The cache addresses each cell by a stable
blake2b digest of the job's canonical JSON identity; the code version enters as a
*salt* stored inside the entry, so a simulator-affecting edit invalidates
stale entries on first touch (counted, and the file is replaced) while
edits to the engine/experiment/CLI layers leave every entry valid —
re-running a finished experiment after an unrelated edit is near-instant.

Entries are compact JSON documents holding the salt and the job's
result payload (the engine stores ``SimulationResult.to_record()``
records), so a cache hit reproduces the original result bit-for-bit.
Entries written with a ``job`` member (the job's identity, which
nothing reads) still load. Layout::

    <root>/<key[:2]>/<key>.json

The root defaults to ``~/.cache/repro-cpelide`` and is overridden by the
``REPRO_CACHE_DIR`` environment variable (the test suite points it at a
tmpdir).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.spec import JobSpec
from repro.errors import CacheError

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subpackages whose source text determines simulation results. Edits
#: anywhere else (engine/, experiments/, analysis CLI glue, docs, tests)
#: do not invalidate cached results.
_SALT_PACKAGES = ("core", "coherence", "cp", "memory", "interconnect",
                  "gpu", "timing", "energy", "workloads", "metrics",
                  "analysis", "hip")

#: Individual modules outside those subpackages that also shape results:
#: the multi-stream workload builder feeds ``("multistream", ...)`` jobs,
#: and ``engine/spec.py`` shapes every job's cache-key payload (an edit
#: there can change which payload a key maps to, so it must salt even
#: though the rest of ``engine/`` does not).
_SALT_MODULES = ("experiments/multistream.py", "engine/spec.py")


@functools.lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Digest of every simulation-relevant source file.

    Hashed once per process; any edit under the :data:`_SALT_PACKAGES`
    subpackages or to a :data:`_SALT_MODULES` file changes the salt and
    therefore invalidates prior entries. A registered path that does not
    exist is a configuration bug, reported as such rather than leaking a
    bare ``FileNotFoundError`` from deep inside a sweep.
    """
    import repro
    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for package in _SALT_PACKAGES:
        package_root = root / package
        if not package_root.is_dir():
            raise CacheError(
                f"code_version_salt: salt package {package!r} not found "
                f"under {root} — update _SALT_PACKAGES in "
                f"repro/engine/cache.py to match the source tree")
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    for module in _SALT_MODULES:
        path = root / module
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise CacheError(
                f"code_version_salt: salt module {module!r} not found at "
                f"{path} — update _SALT_MODULES in repro/engine/cache.py "
                f"to match the source tree") from None
        digest.update(module.encode())
        digest.update(data)
    return digest.hexdigest()[:16]


def default_cache_dir() -> pathlib.Path:
    """Resolve the cache root (honouring ``REPRO_CACHE_DIR``)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro-cpelide"


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one cache instance.

    The last three counters only move under the claim/lease protocol of
    :class:`SharedResultCache`: ``deduped`` counts results served from
    another worker's *in-flight* computation, ``claims`` counts claims
    this instance acquired, and ``reclaims`` counts expired leases it
    took over from dead workers.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    stores: int = 0
    deduped: int = 0
    claims: int = 0
    reclaims: int = 0

    def snapshot(self) -> "CacheStats":
        """Copy of the current counters."""
        return CacheStats(self.hits, self.misses, self.invalidations,
                          self.stores, self.deduped, self.claims,
                          self.reclaims)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an earlier snapshot."""
        return CacheStats(self.hits - earlier.hits,
                          self.misses - earlier.misses,
                          self.invalidations - earlier.invalidations,
                          self.stores - earlier.stores,
                          self.deduped - earlier.deduped,
                          self.claims - earlier.claims,
                          self.reclaims - earlier.reclaims)

    def merge(self, other: "CacheStats") -> None:
        """Fold another instance's counters into this one (the parent
        aggregates per-worker cache stats after a distributed sweep)."""
        self.hits += other.hits
        self.misses += other.misses
        self.invalidations += other.invalidations
        self.stores += other.stores
        self.deduped += other.deduped
        self.claims += other.claims
        self.reclaims += other.reclaims


# ---------------------------------------------------------------------------
# The result cache: shared across processes, with in-flight dedupe
# ---------------------------------------------------------------------------

#: Default lease duration for an in-flight claim. Long enough for any
#: single sweep cell at bench scale; short enough that a hung worker's
#: claim is reclaimed within one polling generation (a dead worker's
#: claim on this host is reclaimed at once).
DEFAULT_LEASE_SECONDS = 300.0

#: Default polling interval while waiting on another worker's claim.
DEFAULT_POLL_SECONDS = 0.05

#: Upper bound on the clock-skew margin added to claim deadlines before
#: they count as expired. Claim deadlines are *wall-clock* timestamps —
#: the only clock two hosts sharing a cache directory have in common —
#: so a reader whose clock runs ahead of the writer's would otherwise
#: reclaim a perfectly live claim. The effective margin is proportional
#: to the claim's own lease (a 300 s lease tolerates 5 s of skew, a
#: 10 ms test lease only 2.5 ms, so short-lease tests still expire
#: promptly), capped here.
MAX_CLAIM_SKEW_SECONDS = 5.0

#: Fraction of a claim's lease granted as skew margin (capped at
#: :data:`MAX_CLAIM_SKEW_SECONDS`).
CLAIM_SKEW_FRACTION = 0.25

#: ``try_claim`` outcomes.
CLAIM_HIT = "hit"          # result already stored; payload returned
CLAIM_ACQUIRED = "claimed"  # caller owns the cell and must compute it
CLAIM_INFLIGHT = "inflight"  # another live worker is computing it


def _pid_alive(pid: Any) -> bool:
    """Whether process ``pid`` exists on this host (``True`` when it
    cannot be told, so the claim's lease decides)."""
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except (OSError, TypeError, ValueError):
        return True
    return True


class SharedResultCache:
    """Content-addressed JSON store of completed job results, safe for
    concurrent multi-process use, with *in-flight dedupe*.

    Storage is plain content-addressed JSON files (atomic rename), so
    any number of readers/writers on one filesystem — including workers
    on different hosts sharing a network mount — can use one root
    concurrently. On top of :meth:`load`/:meth:`store` sits the
    **claim/lease protocol**: before computing a missing cell a worker
    *claims* it by exclusively creating ``<key>.claim`` beside the
    entry. A second worker that wants the same cell sees the live
    claim, *waits* instead of recomputing, and is served the first
    worker's result the moment it lands (counted as ``deduped`` —
    "served from in-flight"). Claims
    carry a deadline; a claim whose lease expired (its worker died or
    hung) is *reclaimed* by the next requester, so no cell can be
    orphaned. Claims also record the claimant's host and pid: a claim
    whose claimant no longer exists on this host is reclaimed at once,
    without waiting out the lease. Claim files are never ``.json``, so
    they are invisible to ``clear()``/``__len__``.

    **Timekeeping.** Two different clocks are in play and must not be
    conflated:

    * *Claim deadlines* are **wall-clock** (``time.time()``) timestamps,
      because they are compared across processes and hosts — wall time
      is the only clock a network-mounted cache directory's readers
      share. A claim only counts as expired once its deadline plus a
      *skew margin* has passed (:meth:`_claim_expired`), so a reader
      whose clock runs slightly ahead of the writer's cannot reclaim a
      live claim. The margin scales with the claim's own lease
      (:data:`CLAIM_SKEW_FRACTION`, capped at
      :data:`MAX_CLAIM_SKEW_SECONDS`).
    * *Local timeouts* (the ``timeout`` parameter of :meth:`wait_for`)
      are measured on ``time.monotonic()``: a backwards wall-clock step
      (NTP correction, manual adjustment) must neither stall a wait
      forever nor expire it early.
    """

    def __init__(self, root: "os.PathLike[str] | str | None" = None,
                 salt: Optional[str] = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 poll_seconds: float = DEFAULT_POLL_SECONDS) -> None:
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.salt = salt if salt is not None else code_version_salt()
        self.stats = CacheStats()
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds

    # ------------------------------------------------------------------

    @staticmethod
    def key(job: JobSpec) -> str:
        """Stable content hash identifying one job
        (:attr:`JobSpec.key <repro.engine.spec.JobSpec.key>`, computed
        once per job); independent of root and salt."""
        return job.key

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------

    def load(self, job: JobSpec) -> Optional[Any]:
        """Return the cached result payload for ``job``, or ``None``.

        A present entry whose salt does not match the current code
        version is *invalidated*: counted, deleted, and reported as a
        miss so the caller recomputes it.
        """
        path = self._path(job.key)
        try:
            document = json.loads(path.read_bytes())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            # Unreadable/corrupt entry (not UTF-8, or not JSON): drop it
            # and recompute.
            self.stats.invalidations += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            return None
        if document.get("salt") != self.salt:
            self.stats.invalidations += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.stats.hits += 1
        return document["result"]

    def store(self, job: JobSpec, result: Any) -> None:
        """Persist one job's result payload as compact JSON.

        The document is written to a temporary name and renamed into
        place, so a reader sees a whole entry or none. A store that
        fails in between removes its temporary file and raises.
        """
        path = self._path(job.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"salt": self.salt, "result": result}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(document, separators=(",", ":")))
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.stats.stores += 1

    # ------------------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry under the root; returns entries removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.json"))

    # ------------------------------------------------------------------

    def _claim_path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.claim"

    def _claim_token(self) -> str:
        import secrets
        return f"{socket.gethostname()}-{os.getpid()}-{secrets.token_hex(8)}"

    def _read_claim(self, path: pathlib.Path) -> Optional[Dict[str, Any]]:
        """The claim at ``path``, or ``None`` when there is none.

        A claim file that does not decode to a JSON object (not UTF-8,
        not JSON, or emptied by a writer that died) reads as ``{}``: it
        has no deadline, so it counts as expired and is reclaimed
        instead of being waited on forever.
        """
        try:
            claim = json.loads(path.read_bytes())
        except OSError:
            return None
        except ValueError:
            return {}
        return claim if isinstance(claim, dict) else {}

    def _peek(self, job: JobSpec) -> Optional[Any]:
        """Like :meth:`load` but without touching the hit/miss counters
        (the claim/wait paths do their own accounting)."""
        path = self._path(job.key)
        try:
            document = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return None
        if document.get("salt") != self.salt:
            return None
        return document["result"]

    def _write_claim(self, path: pathlib.Path, token: str) -> bool:
        """Atomically create the claim file; False if it already exists.

        The claim is written whole under a private name and hard-linked
        into place: the link creates it exclusively, and no reader ever
        sees a half-written claim (which would read as expired).

        The deadline is wall-clock (cross-host comparable); the claim
        also records its own lease duration so readers can scale their
        skew margin to it (see :meth:`_claim_expired`).
        """
        import time
        path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps({
            "token": token,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "deadline": time.time() + self.lease_seconds,
            "lease": self.lease_seconds,
        })
        tmp = path.with_name(f"{path.name}.{token}.tmp")
        try:
            tmp.write_text(body)
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            tmp.unlink(missing_ok=True)
        return True

    def _claim_expired(self, claim: Dict[str, Any]) -> bool:
        """Whether a claim's lease has expired, with skew margin.

        The deadline comparison is deliberately wall-clock — it is the
        only clock shared with claim writers on other hosts — guarded by
        a margin proportional to the claim's declared lease so a reader
        with a fast clock cannot reclaim a live claim.

        A claim written on this host by a process that no longer exists
        (killed mid-cell) counts as expired at once. A wrong guess (a
        reused pid) only falls back to the lease; a wrong "dead" costs
        at most one duplicate computation, since stores are atomic and
        results deterministic.
        """
        import time
        if (claim.get("host") == socket.gethostname()
                and not _pid_alive(claim.get("pid"))):
            return True
        lease = float(claim.get("lease", self.lease_seconds))
        margin = min(MAX_CLAIM_SKEW_SECONDS, CLAIM_SKEW_FRACTION * lease)
        return claim.get("deadline", 0.0) + margin <= time.time()

    def _reclaim_expired(self, claim_path: pathlib.Path,
                         observed: Dict[str, Any]) -> bool:
        """Atomically remove an expired claim (token compare-and-swap).

        Naively ``unlink()``-ing an expired claim races: two waiters
        that both observed the expired deadline would each unlink +
        exclusively recreate, with the second unlink deleting the *first
        reclaimer's fresh claim* — and both would then compute the cell.
        Instead the claim is renamed to a private quarantine path (an
        atomic take: exactly one renamer wins, the loser gets ENOENT)
        and its token is compared against the one the caller observed
        expired. A mismatch means the path held a *newer* claim written
        between our read and our rename; it is restored via
        ``os.link`` (a no-op if yet another claimant already created a
        fresh claim meanwhile — that owner's release simply finds a
        foreign token and leaves it alone).

        Returns True if this caller removed the expired claim and may
        now race the exclusive create; the winner is counted as one
        ``reclaims``.
        """
        quarantine = claim_path.with_name(
            f"{claim_path.name}.reclaim-{os.getpid()}-{id(self):x}")
        try:
            os.rename(claim_path, quarantine)
        except OSError:
            return False  # another reclaimer (or the owner) acted first
        stolen = self._read_claim(quarantine)
        if stolen is not None and stolen.get("token") != observed.get("token"):
            try:
                os.link(quarantine, claim_path)
            except OSError:
                pass
            quarantine.unlink(missing_ok=True)
            return False
        quarantine.unlink(missing_ok=True)
        self.stats.reclaims += 1
        return True

    # ------------------------------------------------------------------

    def try_claim(self, job: JobSpec) -> "Tuple[str, Any]":
        """One attempt to acquire ``job``'s cell.

        Returns one of:

        * ``(CLAIM_HIT, payload)`` — the result is already stored;
        * ``(CLAIM_ACQUIRED, token)`` — the caller now owns the cell and
          must compute it, then :meth:`store_and_release` (or
          :meth:`abandon` on failure);
        * ``(CLAIM_INFLIGHT, claim_dict)`` — another live worker holds
          the claim; :meth:`wait_for` the result.
        """
        payload = self.load(job)  # counts hit or miss
        if payload is not None:
            return CLAIM_HIT, payload
        claim_path = self._claim_path(job.key)
        token = self._claim_token()
        for attempt in (0, 1, 2):
            if self._write_claim(claim_path, token):
                payload = self._peek(job)
                if payload is not None:
                    # Another worker stored the cell and released its
                    # claim between our load and our create: serve its
                    # result rather than compute the cell twice.
                    self._release(job, token)
                    self.stats.deduped += 1
                    return CLAIM_HIT, payload
                self.stats.claims += 1
                return CLAIM_ACQUIRED, token
            claim = self._read_claim(claim_path)
            if claim is None:
                # Claim vanished between exists-check and read (the
                # holder just released it): retry the exclusive create.
                continue
            if self._claim_expired(claim):
                # Expired lease: the holder died or hung. Remove the
                # stale claim atomically (exactly one of any number of
                # concurrent reclaimers wins the compare-and-swap) and
                # retry the exclusive create; losers re-read and find
                # the winner's fresh claim.
                self._reclaim_expired(claim_path, claim)
                continue
            return CLAIM_INFLIGHT, claim
        return CLAIM_INFLIGHT, {"token": None, "deadline": 0.0}

    def acquire(self, job: JobSpec) -> "Tuple[str, Any]":
        """Blocking front half of the dedupe protocol.

        Loops :meth:`try_claim`/:meth:`wait_for` until the caller either
        holds the result (``(CLAIM_HIT, payload)`` — a plain hit, or a
        result served from another worker's in-flight computation) or
        owns the claim (``(CLAIM_ACQUIRED, token)``).
        """
        while True:
            status, value = self.try_claim(job)
            if status != CLAIM_INFLIGHT:
                return status, value
            payload = self.wait_for(job)
            if payload is not None:
                return CLAIM_HIT, payload
            # The in-flight worker died without storing: loop and claim.

    def wait_for(self, job: JobSpec,
                 timeout: Optional[float] = None) -> Optional[Any]:
        """Wait for another worker's in-flight computation of ``job``.

        Polls until the result lands (returned, counted as ``deduped``),
        the claim disappears or expires without a result (``None`` — the
        caller should claim the cell itself), or ``timeout`` elapses.

        ``timeout`` is a *local* deadline, measured on the monotonic
        clock: a wall-clock step (NTP slew, manual adjustment) while
        waiting must neither stall the wait nor cut it short. Only the
        claim's own deadline — written by a possibly-remote worker — is
        compared in wall time (see :meth:`_claim_expired`).
        """
        import time
        claim_path = self._claim_path(job.key)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            payload = self._peek(job)
            if payload is not None:
                self.stats.deduped += 1
                return payload
            claim = self._read_claim(claim_path)
            if claim is None or self._claim_expired(claim):
                return None
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(self.poll_seconds)

    def store_and_release(self, job: JobSpec, result: Any,
                          token: str) -> None:
        """Publish a computed result, then drop the caller's claim.

        Order matters: the result must be visible *before* the claim
        disappears, so a waiter never observes "no claim, no result" for
        a cell that was computed successfully. A store that fails still
        drops the claim, so a waiter or the next requester computes the
        cell instead of waiting out the lease.
        """
        try:
            self.store(job, result)
        finally:
            self._release(job, token)

    def abandon(self, job: JobSpec, token: str) -> None:
        """Drop a claim without storing (the computation failed); a
        waiter or the next requester takes the cell over."""
        self._release(job, token)

    def _release(self, job: JobSpec, token: str) -> None:
        claim_path = self._claim_path(job.key)
        claim = self._read_claim(claim_path)
        if claim is not None and claim.get("token") == token:
            claim_path.unlink(missing_ok=True)

    def claimed_keys(self) -> "List[str]":
        """Keys with a live claim file (diagnostics)."""
        if not self.root.exists():
            return []
        return sorted(path.stem for path in self.root.rglob("*.claim"))


#: The one result-cache class under its storage-layer name.
ResultCache = SharedResultCache
