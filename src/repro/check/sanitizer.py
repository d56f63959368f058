"""Coherence invariant sanitizer (the ``repro.check`` tentpole).

Hooks the simulator at kernel boundaries and asserts the semantic
invariants CPElide is built on, at cache-line granularity:

* **Legal state transitions** — every Chiplet Coherence Table row moves
  only along the NP/Valid/Dirty/Stale edges Fig. 6 allows, per chiplet,
  across each kernel launch.
* **Op-set exactness** — the launch-time flush/invalidate set equals
  what the pre-launch table state mandates: a release for exactly the
  chiplets holding Dirty data another accessor overlaps, an acquire for
  exactly the chiplets accessing a range that is Stale on them.
* **No stale reads** — after a launch installs the new kernel's
  accesses, no chiplet's tracked range may still be Stale where that
  chiplet is about to access it.
* **Dirty-tracking completeness** — every dirty L2 line sits under a
  table row that marks its chiplet Dirty (forward-to-home protocols).
* **Home residency** — forward-to-home protocols never cache a line in
  a chiplet whose home is elsewhere.
* **HMG directory consistency** — a remotely-cached line's home
  directory lists the cacher as a sharer, and write-through L2s are
  never dirty.
* **Lease exactness** (timestamp protocols) — the lease ledger tracks
  exactly the resident L2 lines, no lease or write-stamp postdates the
  epoch clock, and a line's home copy is never older than its latest
  write. Additionally, a per-serve observer asserts that every read a
  lease validates comes from a copy filled at or after the line's
  latest write stamp and within its lease — the "no read from a copy
  that predates the latest remote write" guarantee, recomputed from the
  ledger primitives independently of the protocol's serve decision.
* **Run-end flush completeness** — a whole-cache release executed at
  run end leaves its L2 with zero dirty lines.

The sanitizer only *reads* simulator state (LRU orders and placement
decisions are never perturbed), so a checked run produces
bit-identical results to an unchecked one — the differential tests rely
on this. Enable it per-config with ``GPUConfig.check_invariants=True``
or globally with ``REPRO_CHECK=1``.
"""

from __future__ import annotations

import os
from typing import List, Optional, Set, Tuple

from repro.core.coarsening import coarsen_regions
from repro.errors import InvariantViolation
from repro.core.regions import ranges_overlap, region_from_arg
from repro.core.states import ChipletState, is_legal_transition, merge_conservative
from repro.cp.local_cp import SyncOp, SyncOpKind
from repro.memory.cache import WritePolicy

#: Environment variable that force-enables the sanitizer for every
#: simulator in the process (the per-config ``check_invariants`` flag
#: enables it for one configuration). ``"0"`` and the empty string mean
#: disabled, anything else enables.
CHECK_ENV = "REPRO_CHECK"

#: Ops whose ``reason`` carries this prefix are the conservative
#: fallback for a table row evicted on overflow; they are mandated by
#: the eviction, not by the pre-launch table state, so the op-set
#: exactness check excludes them.
_OVERFLOW_PREFIX = "table-overflow"

#: Snapshot of one table row: (name, base, end, states, ranges).
_RowSnap = Tuple[str, int, int, Tuple[ChipletState, ...], tuple]


class CheckError(InvariantViolation):
    """A coherence invariant was violated.

    Derives from :class:`~repro.errors.InvariantViolation` (itself an
    ``AssertionError``): a violation is a simulator bug, never a
    workload property, and must abort the run loudly.
    """


def checks_enabled(config) -> bool:
    """Whether the sanitizer should run for ``config``.

    True when the config opts in (``check_invariants``) or the
    ``REPRO_CHECK`` environment variable is set to anything but ``""``
    or ``"0"``.
    """
    if getattr(config, "check_invariants", False):
        return True
    return os.environ.get(CHECK_ENV, "") not in ("", "0")


class SyncSanitizer:
    """Asserts coherence invariants over one simulation run.

    The :class:`~repro.gpu.sim.Simulator` drives the hooks in order, per
    kernel: :meth:`before_launch` (snapshot), :meth:`after_launch`
    (table transition / op-set / stale-read checks), :meth:`after_kernel`
    (cache-line walks), and once per run :meth:`after_run` (run-end
    flush completeness). Memo-path replayed kernels skip the per-kernel
    hooks (their states are restored wholesale from a recording that was
    itself checked); the differential oracle covers them cross-path.
    """

    def __init__(self, config, device, protocol) -> None:
        self.config = config
        self.device = device
        self.protocol = protocol
        #: CPElide-family protocols expose the Chiplet Coherence Table;
        #: table invariants are skipped for the others.
        self.table = getattr(protocol, "table", None)
        #: HMG-family protocols expose per-home L2 directories.
        self.directories = getattr(protocol, "directories", None)
        #: Timestamp-family protocols expose the lease ledger; when
        #: present, hook the per-serve observer. The protocols call it
        #: from their per-line and bulk paths alike, so a checked run
        #: takes the same paths as an unchecked one.
        self.leases = getattr(protocol, "leases", None)
        if self.leases is not None:
            protocol.lease_observer = self._observe_lease_serve
        #: Kernel boundaries fully checked (meta-tests assert coverage).
        self.kernels_checked = 0
        self._pre_rows: Optional[List[_RowSnap]] = None

    # ------------------------------------------------------------------

    def _fail(self, invariant: str, detail: str) -> None:
        raise CheckError(
            f"[{getattr(self.protocol, 'name', self.protocol)}] "
            f"{invariant}: {detail}")

    # ------------------------------------------------------------------
    # Kernel-launch hooks (table-level invariants)
    # ------------------------------------------------------------------

    def before_launch(self) -> None:
        """Snapshot the table rows the launch is about to transform."""
        if self.table is not None:
            self._pre_rows = [
                (e.name, e.base, e.end, tuple(e.states), tuple(e.ranges))
                for e in self.table.entries]

    def after_launch(self, packet, placement, decision) -> None:
        """Check the launch against the :meth:`before_launch` snapshot."""
        if self.table is None:
            return
        pre_rows = self._pre_rows or []
        self._pre_rows = None
        regions = self._launch_regions(packet, placement)
        self._check_op_sets(packet, regions, pre_rows, decision.launch_ops)
        self._check_transitions(packet, pre_rows)
        self._check_no_stale_access(packet, regions)

    def _launch_regions(self, packet, placement) -> list:
        """The access regions exactly as the elision engine saw them
        (same coarsening cut-off, so the reference op sets below are
        computed over identical inputs)."""
        regions = [region_from_arg(arg, placement) for arg in packet.args]
        if len(regions) > self.table.structs_per_kernel:
            regions = coarsen_regions(regions, self.table.structs_per_kernel)
        return regions

    def _check_op_sets(self, packet, regions, pre_rows: List[_RowSnap],
                       launch_ops: List[SyncOp]) -> None:
        """Launch flushes/invalidates must match the pre-launch table
        state exactly — no missing sync (dirty-drop / stale-read hazard)
        and no spurious sync (elision regression)."""
        want_release: Set[int] = set()
        want_acquire: Set[int] = set()
        for region in regions:
            for _name, base, end, states, held_ranges in pre_rows:
                if not ranges_overlap((base, end), (region.base, region.end)):
                    continue
                for holder, state in enumerate(states):
                    held = held_ranges[holder]
                    if state is ChipletState.DIRTY:
                        for accessor, rng in region.chiplet_ranges.items():
                            if accessor != holder and ranges_overlap(held, rng):
                                want_release.add(holder)
                                break
                    elif state is ChipletState.STALE:
                        rng = region.chiplet_ranges.get(holder)
                        if rng is not None and ranges_overlap(held, rng):
                            want_acquire.add(holder)

        if getattr(self.protocol, "lease_acquires", False):
            # Lease-hybrid protocols replace acquire-side invalidation
            # with self-invalidating leases: the table may mandate
            # acquires, but the launch must drop every one of them.
            want_acquire.clear()

        got_release: Set[int] = set()
        got_acquire: Set[int] = set()
        for op in launch_ops:
            if op.reason.startswith(_OVERFLOW_PREFIX):
                continue
            if op.kind is SyncOpKind.RELEASE:
                got_release.add(op.chiplet)
            else:
                got_acquire.add(op.chiplet)

        if got_release != want_release or got_acquire != want_acquire:
            self._fail(
                "op-set-mismatch",
                f"kernel {packet.kernel_id} ({packet.name}): table state "
                f"mandates releases={sorted(want_release)} "
                f"acquires={sorted(want_acquire)}, launch issued "
                f"releases={sorted(got_release)} "
                f"acquires={sorted(got_acquire)}")

    def _check_transitions(self, packet, pre_rows: List[_RowSnap]) -> None:
        """Every post-launch row state must be reachable from the
        (conservatively merged) pre-launch state of its extent via a
        legal Fig. 6 edge. Rows merge and extend across launches, so
        each post row is compared against the merge of every pre row its
        extent overlaps (an uncovered extent starts from Not Present)."""
        for entry in self.table.entries:
            for chiplet, post in enumerate(entry.states):
                pre = ChipletState.NOT_PRESENT
                for _name, base, end, states, _ranges in pre_rows:
                    if ranges_overlap((base, end), (entry.base, entry.end)):
                        pre = merge_conservative(pre, states[chiplet])
                if not is_legal_transition(pre, post):
                    self._fail(
                        "illegal-transition",
                        f"kernel {packet.kernel_id} ({packet.name}): row "
                        f"{entry.name!r} chiplet {chiplet} moved "
                        f"{pre.name} -> {post.name}, which Fig. 6 forbids")

    def _check_no_stale_access(self, packet, regions) -> None:
        """After the launch installed the new accesses, no chiplet may
        be left Stale on a range it is about to access — that access
        would read data another chiplet overwrote."""
        for region in regions:
            for entry in self.table.find_overlapping(region.base, region.end):
                for chiplet, rng in region.chiplet_ranges.items():
                    if (entry.states[chiplet] is ChipletState.STALE
                            and ranges_overlap(entry.ranges[chiplet], rng)):
                        self._fail(
                            "stale-read",
                            f"kernel {packet.kernel_id} ({packet.name}): "
                            f"chiplet {chiplet} accesses "
                            f"{rng} of row {entry.name!r} while the table "
                            f"still marks it STALE over "
                            f"{entry.ranges[chiplet]} — a missing acquire")

    # ------------------------------------------------------------------
    # Post-kernel hook (cache-line-level invariants)
    # ------------------------------------------------------------------

    def after_kernel(self, packet) -> None:
        """Walk the caches after a kernel (and its completion hook)."""
        if self.protocol.caches_remote_locally:
            self._check_hmg_lines(packet)
        else:
            self._check_home_lines(packet)
        if self.leases is not None:
            self._check_lease_state(packet)
        self.kernels_checked += 1

    def _check_home_lines(self, packet) -> None:
        """Forward-to-home protocols: residency and dirty tracking."""
        device = self.device
        peek = device.home_map.peek_home_of_line
        line_size = self.config.line_size
        check_table = self.table is not None
        # Tracked ranges are the table's first-touch estimate of each
        # chiplet's home extent; the device assigns homes at page
        # granularity, so actual dirty lines may round past the tracked
        # range by up to one page at each end.
        slack = self.config.scaled_page_lines * line_size
        for chiplet, l2 in enumerate(device.l2s):
            for line, dirty in l2.iter_lines():
                home = peek(line)
                if home != chiplet:
                    self._fail(
                        "remote-residency",
                        f"kernel {packet.kernel_id} ({packet.name}): line "
                        f"{line} homed at chiplet {home} is cached in "
                        f"chiplet {chiplet}'s L2 under forward-to-home "
                        f"routing")
                if not dirty or not check_table:
                    continue
                addr = line * line_size
                tracked = False
                covered = False
                for entry in self.table.find_overlapping(addr,
                                                         addr + line_size):
                    covered = True
                    if entry.states[chiplet] is not ChipletState.DIRTY:
                        continue
                    rng = entry.ranges[chiplet]
                    if rng is not None and ranges_overlap(
                            (rng[0] - slack, rng[1] + slack),
                            (addr, addr + line_size)):
                        tracked = True
                        break
                if not tracked:
                    self._fail(
                        "untracked-dirty",
                        f"kernel {packet.kernel_id} ({packet.name}): dirty "
                        f"line {line} in chiplet {chiplet}'s L2 is "
                        + ("not marked DIRTY by any covering table row"
                           if covered else
                           "not covered by any table row")
                        + " — a later consumer would miss its flush")

    def _check_hmg_lines(self, packet) -> None:
        """HMG: write policy and directory sharer completeness."""
        device = self.device
        peek = device.home_map.peek_home_of_line
        directories = self.directories
        write_through = (getattr(self.protocol, "l2_policy", None)
                         is WritePolicy.WRITE_THROUGH)
        for chiplet, l2 in enumerate(device.l2s):
            for line, dirty in l2.iter_lines():
                if dirty and write_through:
                    self._fail(
                        "wt-dirty-line",
                        f"kernel {packet.kernel_id} ({packet.name}): "
                        f"write-through L2 of chiplet {chiplet} holds "
                        f"dirty line {line}")
                if directories is None:
                    continue
                home = peek(line)
                if home is None or home == chiplet:
                    continue
                directory = directories[home]
                entry = directory.peek(directory.region_of(line))
                if entry is None or chiplet not in entry.sharers:
                    self._fail(
                        "directory-sharer-missing",
                        f"kernel {packet.kernel_id} ({packet.name}): line "
                        f"{line} is cached remotely in chiplet {chiplet} "
                        f"but home {home}'s directory does not list it as "
                        f"a sharer — a store would fail to invalidate it")

    def _check_lease_state(self, packet) -> None:
        """Timestamp protocols: the lease ledger must mirror the caches
        exactly (every resident line leased, every lease resident), no
        bookkeeping may postdate the epoch clock, and a line cached at
        its *home* chiplet must be at least as new as the line's latest
        write stamp (the home-always-fresh invariant both protocols'
        remote-serve paths rely on)."""
        leases = self.leases
        device = self.device
        peek = device.home_map.peek_home_of_line
        clock = leases.clock
        for chiplet, l2 in enumerate(device.l2s):
            resident = {line for line, _dirty in l2.iter_lines()}
            leased = set(leases.fills[chiplet])
            if resident != leased:
                self._fail(
                    "lease-residency-drift",
                    f"kernel {packet.kernel_id} ({packet.name}): chiplet "
                    f"{chiplet} leases drifted from its L2 contents "
                    f"(leased-not-resident="
                    f"{sorted(leased - resident)[:8]}, "
                    f"resident-not-leased="
                    f"{sorted(resident - leased)[:8]})")
            for line, fill in leases.fills[chiplet].items():
                if fill > clock:
                    self._fail(
                        "lease-from-the-future",
                        f"kernel {packet.kernel_id} ({packet.name}): line "
                        f"{line} on chiplet {chiplet} was filled at epoch "
                        f"{fill} > clock {clock}")
                if (peek(line) == chiplet
                        and fill < leases.stamps.get(line, fill)):
                    self._fail(
                        "stale-home-copy",
                        f"kernel {packet.kernel_id} ({packet.name}): home "
                        f"chiplet {chiplet}'s copy of line {line} (filled "
                        f"at {fill}) predates the line's write stamp "
                        f"{leases.stamps[line]} — a write bypassed the "
                        f"home L2")
        for line, stamp in leases.stamps.items():
            if stamp > clock:
                self._fail(
                    "stamp-from-the-future",
                    f"kernel {packet.kernel_id} ({packet.name}): line "
                    f"{line} carries write stamp {stamp} > clock {clock}")

    def _observe_lease_serve(self, chiplet: int, line: int) -> None:
        """Per-serve invariant, recomputed from the ledger primitives:
        a lease-validated read must come from a copy that is leased,
        unexpired, and filled at or after the line's latest write stamp
        (no read may ever observe a copy predating a remote write)."""
        leases = self.leases
        fill = leases.fills[chiplet].get(line)
        if fill is None:
            self._fail(
                "lease-serve-unleased",
                f"chiplet {chiplet} served line {line} from its L2 "
                f"without holding a lease on it")
        if leases.clock - fill >= leases.lease:
            self._fail(
                "lease-expired-serve",
                f"chiplet {chiplet} served line {line} from a copy "
                f"filled at epoch {fill}, expired since epoch "
                f"{fill + leases.lease} (clock {leases.clock})")
        stamp = leases.stamps.get(line)
        if stamp is not None and fill < stamp:
            self._fail(
                "lease-stale-serve",
                f"chiplet {chiplet} served line {line} from a copy "
                f"filled at epoch {fill} that predates the line's write "
                f"stamp {stamp} — a stale read")

    # ------------------------------------------------------------------
    # Run-end hook
    # ------------------------------------------------------------------

    def after_run(self, ops: List[SyncOp]) -> None:
        """A whole-cache release executed at run end must leave the
        target L2 with no dirty line (host visibility of all results)."""
        for op in ops:
            if op.kind is not SyncOpKind.RELEASE or op.ranges is not None:
                continue
            remaining = self.device.l2s[op.chiplet].dirty_lines
            if remaining:
                self._fail(
                    "unflushed-at-run-end",
                    f"chiplet {op.chiplet}'s L2 still holds {remaining} "
                    f"dirty line(s) after the end-of-run release")
