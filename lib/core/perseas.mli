open Sim

(** PERSEAS: a transaction library for main-memory databases on a
    reliable network RAM (the paper's contribution).

    Every database segment lives twice: in the local node's DRAM and,
    mirrored, in the memory exported by a remote node's server.  A
    transaction makes three kinds of memory copies and no disk access
    (paper, Figure 3):

    + [set_range] copies the before-image into the local undo log and
      pushes it to the remote undo log with a remote write;
    + the application updates the declared ranges in the local database;
    + [commit] copies each updated range to the remote mirror and then
      atomically bumps the remotely-mirrored {e epoch} — a single
      8-byte remote store, which is the commit point.

    If the local node crashes at any instant, {!recover} rebuilds the
    database on any workstation that can reach the mirror: undo records
    tagged with the current epoch are applied back over the remote
    database (discarding a half-propagated commit), the epoch is bumped
    to invalidate them, and the segments are fetched with
    remote-to-local copies. *)

module Txn_intf = Txn_intf
module Layout = Layout
module Iset = Iset

type t
type segment
type txn

type config = {
  undo_capacity : int;  (** Bytes reserved for the undo log (both copies). *)
  max_segments : int;
  optimized_memcpy : bool;
      (** Use the §4 [sci_memcpy] 64-byte-alignment optimisation for
          remote copies (default).  Disable for the ablation bench.
          With [redundancy_elision] it additionally snaps commit
          propagation runs to 64-byte packet lines. *)
  redundancy_elision : bool;
      (** Drive undo logging and commit propagation off the
          transaction's write-set interval index (default): a
          [set_range] sub-range already declared this transaction is
          not re-logged — Vista-style first-write-only logging, the
          original before-image is the one recovery must restore — and
          [commit] ships the coalesced maximal runs instead of the raw
          declaration list.  Disable to get the naive one-record-per-
          call path, kept as a differential-testing oracle; recovery
          semantics are identical either way. *)
  namespace : string;
      (** Prefix of this database's exported-segment names, so several
          independent databases can share one memory server.  Recovery
          must use the same namespace. *)
  group_commit : int;
      (** Commits per shared flush.  [1] (default) is eager per-commit
          propagation — the original single-transaction behaviour,
          packet for packet.  [> 1] enables group commit: [commit]
          stages the transaction and every [group_commit]-th commit (or
          an explicit {!flush}, or a membership operation) drains the
          queue with one undo convoy, one merged data convoy and one
          single-packet fence per mirror — the burst startup and the
          commit point amortise across the batch. *)
  retired_limit : int;
      (** Maximum entries of the retired-epoch table that remembers at
          which epoch each ex-mirror was dropped (what makes
          {!recruit_mirror}'s incremental path provably safe).  Beyond
          the cap the entry with the {e oldest} epoch is evicted — that
          node simply falls back to a full copy if it ever returns.
          Before this cap the table grew without bound under mirror
          churn.  Must be at least 1 ([Invalid_argument] from
          {!init}). *)
}

val default_config : config
(** 1 MiB + slack of undo space, 64 segments, optimized memcpy,
    redundancy elision on, eager commit ([group_commit = 1]), 64
    retired-epoch entries. *)

exception Undo_overflow
(** A transaction declared more before-image bytes than the undo log
    holds; abort it and retry with a larger [undo_capacity].  Under
    group commit the library first drains the staged queue (freeing the
    flushed records' log space) and only raises if the declaration
    still does not fit — and then only at the caller: staged and open
    peers are unaffected. *)

exception Conflict of { younger : int; older : int }
(** Two in-flight transactions declared overlapping 64-byte lines —
    line granularity because packet widening and commit glue may ship
    margin bytes of a declared range's boundary lines.  Policy: the
    {e younger} transaction (higher {!txn_id}) aborts; it has done less
    work and is the cheaper retry.  Raised by the loser's next library
    call — immediately by [set_range] when the declarer is the younger
    party, or deferred (the declarer dooms the younger holder, which
    learns of it at its own next call).  The losing transaction is
    already rolled back and closed when [Conflict] surfaces; the
    harness {!module:Harness} retry helper catches it and re-runs the
    transaction body. *)

exception Double_begin of string
(** [begin_transaction] while the same client name already has an open
    transaction — the old single-transaction aliasing bug surfaced as a
    typed error.  The payload is the client name.  Concurrent begins
    from {e distinct} clients are legal, as is beginning while the
    client's previous transaction is merely staged for flush. *)

exception All_mirrors_lost
(** Every mirror node has failed: the library refuses to continue,
    since committing without a mirror would silently forfeit
    recoverability.  When raised mid-[set_range]/[commit], the open
    transaction is first rolled back from the local undo log and
    closed, so the library stays usable: [begin_transaction] works
    again once a fresh mirror is attached ({!attach_mirror}) — the
    local copy is still intact. *)

(** {1 Initialisation} *)

val init : ?config:config -> Netram.Client.t -> t
(** [PERSEAS_init]: binds the library to a local node and a remote
    memory server, and allocates the undo and metadata mirrors.
    Equivalent to {!init_replicated} with a single mirror. *)

val init_replicated : ?config:config -> Netram.Client.t list -> t
(** Mirror the database on several remote nodes at once (the paper's
    "at least two different PCs").  All clients must run on the same
    local node of the same cluster and target distinct servers.
    Data can then be lost only if the primary and {e every} mirror
    fail in the same window. *)

val client : t -> Netram.Client.t
(** The first mirror's client (convenience for single-mirror setups). *)

val cluster : t -> Cluster.t
val config : t -> config

val malloc : t -> name:string -> size:int -> segment
(** [PERSEAS_malloc]: allocate a local database segment (64-byte
    aligned) and prepare its remote mirror.  Only legal before
    {!init_remote_db}.  Raises [Failure] on duplicate names, exhausted
    memory or too many segments. *)

val init_remote_db : t -> unit
(** [PERSEAS_init_remote_db]: copy every segment's initial contents to
    its mirror and publish the metadata (magic, epoch, segment table)
    remotely.  From this point the database is recoverable. *)

val remote_ready : t -> bool
val epoch : t -> int64

(** {1 Mirror management}

    A mirror that fails mid-operation is dropped from the set and the
    library continues degraded (a warning is logged and
    [stats.mirrors_lost] is bumped); when the last mirror goes,
    operations raise {!All_mirrors_lost}. *)

type mirror_info = { node_id : int; alive : bool }

val mirrors : t -> mirror_info list
val live_mirrors : t -> int list
(** Node ids of the mirrors still in the set. *)

val mirror_count : t -> int

val set_replication_target : t -> int -> unit
(** Declare how many live mirrors the database {e should} have; while
    {!mirror_count} is below it, virtual time accrues into
    [stats.degraded_us].  Defaults to the initial client count
    ({!recover_replicated} resets it to whatever factor recovery
    achieved); {!Supervisor.create} aligns it with the supervisor's
    target.  Raises [Invalid_argument] when not positive. *)

val replication_target : t -> int

val attach_mirror : t -> server:Netram.Server.t -> unit
(** Bring a new mirror into the set: export (or reconnect and resync)
    every segment plus metadata on [server] and copy the current
    database there (always a {e full} copy — see {!recruit_mirror} for
    the incremental path).  The epoch is bumped so stale undo records
    can never replay against the fresh copy.  Any staged group-commit
    batch is drained ({!flush}) first so the joiner starts from a
    committed image; transactions that are merely {e open} do not block
    the join — the joiner additionally receives their before-images
    over its database copy, keeping it a replica of the {e committed}
    state that their undo records restore.  Raises [Invalid_argument]
    if the node already mirrors this database, [Failure] when called
    from inside a flush in flight (a packet hook re-entering the
    library mid-propagation), and {!Netram.Client.Unreachable} if
    [server] dies mid-resync — in which case the mirror set is left
    exactly as it was, and the joiner's metadata header was zeroed
    {e before} any copying so recovery can never mistake the torn copy
    for a sound one. *)

type resync_mode = Full | Incremental

type resync_report = {
  mode : resync_mode;
  bytes_copied : int;  (** Database bytes actually pushed to the joiner. *)
  full_bytes : int;  (** What a full copy would have moved. *)
}

val recruit_mirror : t -> server:Netram.Server.t -> resync_report
(** {!attach_mirror}, but when [server] is an ex-mirror of this
    database that came back from a transient outage (its exports are
    intact and its replica is no newer than the epoch at which it was
    dropped), only the ranges committed since it left are copied — a
    FIFO dirty-range log of at most 4096 entries remembers them.
    Falls back to a full copy whenever the incremental path cannot be
    proven safe: the node was never a mirror, it has been gone longer
    than the dirty log reaches back, its exports were lost (a reboot
    wipes them) or resized, or its metadata header is invalid or ahead
    of the retirement epoch.  Same exceptions as {!attach_mirror}. *)

val retired_count : t -> int
(** Entries currently in the retired-epoch table (bounded by
    [config.retired_limit]). *)

val probe_mirrors : t -> int list
(** Liveness probe of every live mirror — one control round trip each
    (charged).  Unresponsive mirrors are dropped exactly as if a data
    operation had hit them ([stats.mirrors_lost] is bumped) and their
    node ids returned.  Unlike the data path this never raises
    {!All_mirrors_lost}: it is a detector, not an operation that needs
    a mirror — callers decide what an empty set means for them. *)

val detach_mirror : t -> node_id:int -> unit
(** Remove a mirror from the set (e.g. planned maintenance).  Drains
    any staged group-commit batch first; raises [Failure] mid-flush,
    and refuses — also [Failure] —
    to detach the {e last} live mirror, which would silently forfeit
    recoverability; attach a replacement first ({!attach_mirror}), or
    use {!remirror} to swap the whole set.  Raises [Invalid_argument]
    if the node is not a live mirror. *)

val remirror : t -> server:Netram.Server.t -> unit
(** Drop every current mirror and re-mirror on a single fresh server —
    the "mirror died" recovery path for two-node setups.  Gated like
    {!attach_mirror}: staged commits are flushed first, open
    transactions are scrubbed onto the joiner. *)

val segment : t -> string -> segment option
val segments : t -> segment list
val segment_name : segment -> string
val segment_size : segment -> int

(** {1 Transactions} *)

val begin_transaction : ?client:string -> t -> txn
(** Open a transaction on behalf of [client] (default ["default"]).
    Transactions from {e distinct} clients may be open concurrently —
    the engine keeps one write-set per transaction and detects overlap
    at {!set_range} ({!Conflict}).  Raises {!Double_begin} when the
    same client already has an open transaction (a staged-but-unflushed
    one does not count: a client may pipeline begins against its own
    group-committed tail), and [Failure] before {!init_remote_db} or
    mid-flush. *)

val txn_id : txn -> int
(** Monotone per-database id; lower id = older transaction ({!Conflict}
    aborts the younger). *)

val txn_client : txn -> string

val validate : txn -> unit
(** Surface a deferred {!Conflict} now: raises it (closing the
    transaction — it was rolled back when the older peer doomed it) if
    an older peer's declaration doomed this transaction; no-op
    otherwise.  Call it between phases of a long transaction so the
    loss is discovered before, not during, the apply work. *)

val open_txn_count : t -> int
val staged_count : t -> int
(** Transactions committed but not yet propagated (group commit). *)

val flush : t -> unit
(** Drain the staged group-commit queue now: one undo convoy, one
    merged data convoy and one single-packet epoch fence per mirror
    commit the whole batch atomically-per-mirror.  No-op when nothing
    is staged.  Membership operations and {!Undo_overflow} pressure
    call this implicitly. *)

val set_range : txn -> segment -> off:int -> len:int -> unit
(** [PERSEAS_set_range]: log the before-image of
    [\[off, off+len)] locally and remotely.  Must precede the updates
    it covers.  With [config.redundancy_elision] (default), sub-ranges
    already declared this transaction are skipped — only the uncovered
    fragments are logged, the first before-image being the one that
    matters — so re-declaring a hot range costs no copies and no
    packets.

    Declaring a 64-byte line another in-flight transaction holds is a
    conflict: the younger party aborts ({!Conflict}) — immediately when
    that is the caller, else the holder is doomed and learns at its
    next call.  Overlap with a merely {e staged} transaction forces a
    {!flush} instead (the staged one already committed; it just had not
    been propagated).  Raises {!Undo_overflow} (after attempting a
    flush to free log space) or [Invalid_argument]. *)

val commit : txn -> unit
(** [PERSEAS_commit_transaction].  With [config.redundancy_elision] the
    propagation ships the transaction's {e coalesced} write-set —
    adjacent/overlapping declarations merged into maximal contiguous
    runs and, when [optimized_memcpy] is also set, runs sharing a
    64-byte packet line glued into one hull ({!Iset.glue}'s rule) — instead of
    one plan per [set_range] call.

    With [config.group_commit > 1] the transaction is {e staged}
    instead of propagated: its durability is deferred until the batch
    flushes (queue full, explicit {!flush}, a membership operation, or
    a staged-range conflict).  The flush commits the batch in commit
    order with shared convoys and one fence — see {!type-config}. *)

val abort : txn -> unit
(** [PERSEAS_abort_transaction]: restores declared ranges from the
    local undo log (local memory copies only).  Aborting a transaction
    an older peer already doomed is a silent no-op (it was rolled back
    at doom time); aborting a staged or closed one raises [Failure]. *)

(** {1 Database access}

    Reads and writes go to the local copy.  Writes charge the CPU copy
    cost; once the store is live ({!init_remote_db}) they must fall
    inside a declared range of an open transaction, which catches
    protocol bugs. *)

val write : t -> segment -> off:int -> bytes -> unit
val read : t -> segment -> off:int -> len:int -> bytes
val write_u32 : t -> segment -> off:int -> int -> unit
val read_u32 : t -> segment -> off:int -> int
val write_u64 : t -> segment -> off:int -> int64 -> unit
val read_u64 : t -> segment -> off:int -> int64
val checksum : t -> segment -> int64

val mirror_checksum : t -> segment -> int64
(** Checksum of the first live mirror's copy (test oracle; charges
    nothing).  Raises {!All_mirrors_lost} when no mirror survives. *)

val mirror_checksums : t -> segment -> (int * int64) list
(** Checksums of every live mirror's copy, by mirror index. *)

val verify_mirrors : t -> (string * int) list
(** Operational scrub: [(segment, mirror index)] pairs whose mirror
    copy diverges from the local database.  Empty outside a commit.
    Charges no virtual time (an offline oracle). *)

(** {1 Fuzzy checkpoints}

    A checkpoint is a consistent database image on a {e third} failure
    domain — a spare node's RAM — taken in the background
    while transactions keep committing (fuzzy: the snapshot is shipped
    in budgeted steps, then brought to a consistent {e cut} at finalize
    time by re-shipping what committed meanwhile and scrubbing
    in-flight transactions' bytes back to their before-images).  A
    published checkpoint lets the engine {e truncate} its recovery
    state — undo log, dirty-range log, retired-epoch table — and lets
    {!recover_replicated}, run on the target's node, adopt the snapshot
    where it lies (O(1) per segment) and read from a mirror only the
    chunks committed since the cut, instead of copying the whole
    database: recovery time stops growing with database size.

    Two slots alternate on the target, and a slot's magic word is
    zeroed before its first snapshot byte and re-written strictly last
    (then the directory's generation word), so a crash at {e any}
    packet of a checkpoint — the sweeps in {!Harness.Crashpoint} cut
    every one — leaves either the previous valid generation or the new
    one, never a torn snapshot recovery would trust. *)

type checkpoint_source =
  | Ram_source of Netram.Server.t
      (** Where {!recover_replicated} should look for checkpoint slots:
          the memory server given to {!Checkpoint.set_ram_target}. *)

module Checkpoint : sig
  exception Target_lost of string
  (** The checkpoint target became unreachable.  The engine drops the
      target (commits keep flowing — checkpointing is an optimisation,
      not a durability requirement), stops its dirty-chunk list, and
      zeroes the list's base word on its mirrors so recovery will not
      trust entries nobody appends. *)

  val set_ram_target : t -> server:Netram.Server.t -> unit
  (** Attach a spare node's memory server as the checkpoint target:
      export the directory block and both slots there and a dirty-chunk
      list ({!Layout.dirty_list_name}) on every mirror.  From the first
      published checkpoint on, every commit appends to that list the
      runs of {!Layout.chunk_bytes}-byte chunks it touched that the list
      does not name yet, and every later checkpoint starts the list over
      at its cut.  The server must live on a node other than the
      primary's
      ([Invalid_argument]) — a checkpoint in the primary's own failure
      domain protects nothing.  Raises [Failure] before
      {!init_remote_db} or with a checkpoint in flight,
      [Invalid_argument] on a database without segments,
      {!Target_lost} if the server is unreachable. *)

  val clear_target : t -> unit
  (** Detach the target and stop the dirty-chunk list (mirrors get a
      metadata push zeroing the list's base word). *)

  val target_set : t -> bool

  val start : t -> unit
  (** Begin a fuzzy checkpoint into the next slot: drain any staged
      group-commit batch (the cut never splits a convoy), zero the
      slot's magic word, and record the start epoch.  Raises [Failure]
      with no target, a checkpoint already in flight, or mid-flush;
      {!Target_lost} on an unreachable target. *)

  val step : t -> budget:int -> bool
  (** Ship up to [budget] more bytes of the segment images to the slot;
      [true] once the full pass is shipped (commits between steps are
      caught at {!finalize}).  Raises like {!start}, and
      [Invalid_argument] on a non-positive budget. *)

  val finalize : t -> int64 * int
  (** Complete and publish the checkpoint, then truncate: ship whatever
      the budget steps have not, re-ship every range committed since
      {!start}, scrub open transactions back to their before-images,
      write the slot header (cut epoch = the current commit point) with
      the magic word second-to-last and the directory generation word
      strictly last — and only then restart the mirrors' dirty-chunk
      lists at the cut, compact the undo log, reset
      [stats.undo_hwm_bytes], fold the now-covered dirty-log entries
      into the bounded resync summary, and prune unreachable
      retired-epoch entries.  Returns (cut epoch, undo bytes
      truncated). *)

  val take : t -> int64 * int
  (** {!start} + {!finalize} in one call: a non-fuzzy (stop-the-world
      within one virtual instant) checkpoint. *)

  val abandon : t -> unit
  (** Drop the in-flight checkpoint, if any.  The slot under
      construction was already fenced off (magic zeroed), the published
      generation is untouched. *)

  val auto :
    t -> events:Events.t -> interval:Time.t -> until:Time.t -> budget:int -> unit
  (** Background checkpointer riding the event queue (like the
      telemetry sampler): each tick starts a checkpoint, ships one
      [budget] of bytes, or finalizes — so checkpoints spread over many
      ticks with commits interleaving.  A lost target ends the work
      silently, and ticks are skipped while every mirror is out (the
      cut would have to quiesce a convoy nobody can receive). *)

  val in_flight : t -> bool

  val generation : t -> int64
  (** Newest published checkpoint generation (0 = none yet). *)
end

(** {1 Recovery} *)

val recover :
  ?config:config ->
  ?sink:Trace.Sink.t ->
  ?hook:(unit -> unit) ->
  ?on_repair:(name:string -> len:int -> unit) ->
  ?checkpoint:checkpoint_source ->
  ?helpers:int list ->
  cluster:Cluster.t ->
  local:int ->
  server:Netram.Server.t ->
  unit ->
  t
(** Rebuild the database on node [local] from the mirror held by
    [server]: reconnect the metadata and undo segments by name, repair
    a half-committed transaction from the remote undo log, invalidate
    it by bumping the epoch, and fetch every segment with
    remote-to-local copies.  Works on the original primary after
    reboot, or on any other workstation — the paper's availability
    property.  Raises [Failure] when the server holds no database.
    [on_repair] is called once per undo record replayed over the
    remote database (segment name and payload bytes) — the observable
    trace of a discarded half-commit. *)

val recover_replicated :
  ?config:config ->
  ?sink:Trace.Sink.t ->
  ?hook:(unit -> unit) ->
  ?on_repair:(name:string -> len:int -> unit) ->
  ?checkpoint:checkpoint_source ->
  ?helpers:int list ->
  cluster:Cluster.t ->
  local:int ->
  servers:Netram.Server.t list ->
  unit ->
  t
(** Multi-mirror recovery: probe every candidate server, trust the one
    whose metadata reached the {e highest} epoch (only it can have seen
    the latest commit point), repair it from its undo log, rebuild the
    local database from it, and resync the other surviving mirrors with
    a full copy.  A best-epoch candidate whose metadata cannot be
    parsed (e.g. it died mid-[attach_mirror] resync) is skipped in
    favour of the next-best intact copy.  Raises [Failure] when no
    candidate holds a recoverable database.

    [checkpoint] offers a place to look for checkpoint slots (see
    {!module:Checkpoint}).  A slot is adopted only where it lies: when
    the server lives on node [local] (recover on the checkpoint target
    for the shortest recovery), the chosen mirror's metadata carries a
    non-zero dirty-list base and the slot passes validation — magic
    fence intact, cut between that base and the mirror's epoch, segment
    table matching — the database takes the snapshot's bytes in place,
    zero-copy, and the chunks the mirror's dirty-chunk list names come
    from the repaired mirror over it, consecutive chunks in one read.
    On any other node, with no valid slot, or with a full list,
    everything comes from the mirror: a recovery elsewhere reads and
    costs exactly what it would without [checkpoint].  A torn slot
    falls back to the previous generation, then to plain mirror fetch —
    never trusted.  A recovery that found a base set zeroes it: the
    rebuilt engine keeps no list until a target is attached and a
    checkpoint published again.

    Every remote byte recovery reads — each candidate's metadata header,
    the chosen mirror's metadata, the undo prefix the repair scan walks,
    the dirty-chunk list's used prefix and the mirror's images — is a
    {!Sci.Nic} read plan, so the NIC counters see it.  [hook] runs
    before every packet of those plans (and of the resync that
    re-attaches the other survivors) and before each undo record the
    repair copies; it may raise to cut recovery there, as
    {!set_packet_hook} cuts a commit.

    [helpers] are other cluster nodes recruited to pull remote reads in
    parallel: each read goes to the least-loaded of [1 + N] streams (by
    its {!Sci.Nic.plan_latency}), a segment read larger than one
    stream's share of the image bytes is cut into reads of that size,
    and virtual time advances by the slowest stream plus one
    coordination round trip per helper.  Without helpers the reads and
    the time are those of a single stream, one read per segment.

    [sink] traces recovery as four contiguous [recovery]-category spans
    — [probe], [repair], [fetch_db], [resync_mirrors] — partitioning
    its whole virtual extent, and becomes the rebuilt instance's trace
    sink (see {!set_sink}). *)

(** {1 Archive}

    The one planned case where the whole cluster goes dark (paper §1:
    "unless scheduled by the system administrators, in which case the
    database can gracefully shut down"): write everything to stable
    storage, and cold-start from it later on any cluster. *)

val archive : t -> Disk.Device.t -> unit
(** Write the metadata and every segment to the device (synchronous,
    charged).  Drains any staged batch first.  Raises [Failure] with an
    open transaction (the local image holds its uncommitted bytes),
    mid-flush, before {!init_remote_db}, or if the device is too
    small. *)

val restore_from_archive :
  ?config:config -> clients:Netram.Client.t list -> Disk.Device.t -> t
(** Cold start: rebuild the database from an archive and mirror it on
    the given servers ({!init_remote_db} included — the instance is
    live on return). *)

(** {1 Fault injection}

    The hook runs before {e every} remote packet PERSEAS sends (undo
    writes, commit propagation, the epoch write).  Raising from it
    models the primary dying at that instant with the packet unsent;
    tests crash the node and exercise {!recover} at every possible cut
    point. *)

val set_packet_hook : t -> (unit -> unit) option -> unit

val commit_packets : txn -> int
(** Number of remote packets committing this transaction would add to
    the wire now (dry run).  Each phase's packets are counted once, from
    the plans {!commit} builds for all mirrors, and multiplied by the
    mirrors the commit would reach: the live ones whose server is
    reachable.  A mirror whose node died unnoticed is dropped at the
    commit's first copy and sends nothing, so it counts nothing.  Eager
    mode: data-propagation packets plus one epoch packet per reachable
    mirror, exactly what {!commit} sends.  Group mode: the
    transaction's {e marginal} packets — the flush cost of the staged
    queue with it minus without it, so shared convoy startup and the
    per-mirror fence are counted once per flush, not once per
    transaction; summing it over a batch committed back-to-back equals
    the flush's measured NIC packet delta. *)

(** {1 Statistics} *)

type stats = private {
  mutable begun : int;
  mutable committed : int;
  mutable aborts : int;
  mutable set_ranges : int;
  mutable undo_bytes_logged : int;
      (** Before-image payload bytes actually logged (after elision). *)
  mutable elided_undo_bytes : int;
      (** Declared bytes whose undo logging was skipped because the
          write-set index already covered them ([redundancy_elision]). *)
  mutable undo_hwm_bytes : int;
      (** High-water mark of the undo log within one transaction
          (headers included) — how close any transaction came to
          {!type-config.undo_capacity}. *)
  mutable coalesced_ranges : int;
      (** Declared ranges merged away by commit propagation: the sum
          over commits of (set_range calls − contiguous runs shipped). *)
  mutable commit_bytes_saved : int;
      (** Payload bytes commit propagation did {e not} re-ship thanks to
          coalescing: the sum over commits of (declared bytes, duplicates
          included − coalesced write-set bytes). *)
  mutable local_copy_bytes : int;  (** Bytes moved by local memcpys. *)
  mutable mirrors_lost : int;  (** Mirrors dropped after failing mid-operation. *)
  mutable mirrors_recruited : int;  (** Mirrors (re-)joined after {!init_remote_db}. *)
  mutable resync_bytes : int;  (** Database bytes pushed to joining mirrors. *)
  mutable degraded_us : int;
      (** Total virtual microseconds spent below the replication target
          (see {!set_replication_target}; an open degraded window counts
          up to the current clock). *)
  mutable conflicts : int;
      (** Transactions aborted because a concurrent peer declared an
          overlapping 64-byte line (both the immediate and the doomed
          flavour of {!Conflict}). *)
  mutable group_flushes : int;  (** Group-commit queue drains ({!flush}). *)
  mutable group_commit_txns : int;
      (** Transactions committed through those flushes; divided by
          [group_flushes] this is the achieved batch size. *)
  mutable checkpoints_taken : int;  (** Checkpoints published ({!Checkpoint.finalize}). *)
  mutable checkpoint_bytes : int;
      (** Segment-image bytes shipped to the checkpoint target,
          including finalize-time re-ships and scrubs. *)
  mutable log_truncated_bytes : int;
      (** Undo-log bytes reclaimed by checkpoint truncation; each
          truncation also resets [undo_hwm_bytes] to the surviving
          tail, so the telemetry dashboard shows the log footprint
          actually shrinking. *)
}

val stats : t -> stats
(** A snapshot: later operations do not change it.  The fields are
    [mutable] only because the engine bumps its own copy in place;
    [private] keeps callers read-only. *)

val stats_fields : stats -> (string * int) list
(** Every counter as [(name, value)], in a fixed order: the one list
    {!pp_stats}, {!stats_to_json} and {!set_telemetry}'s gauges are
    built from. *)

val pp_stats : Format.formatter -> stats -> unit
(** One [name value] line per counter. *)

val stats_to_json : stats -> string
(** The counters as one flat JSON object (key order fixed, matching
    {!pp_stats}). *)

(** {1 Tracing}

    Phase-level spans against virtual time, for the latency-breakdown
    experiments and Perfetto visualisation.  The sink is a pure
    observer: it reads the clock but never advances it, so runs with
    tracing on and off are byte-identical in packet counts, statistics
    and final virtual time.

    Span taxonomy (category [txn], one leaf span per clock charge, so
    per-phase sums equal end-to-end transaction latency): [begin],
    [set_range], [local_undo], [remote_undo] (one per mirror, arg
    [mirror]), [in_place_write], [commit], [commit_propagate] and
    [commit_fence] (one per mirror each), [abort].  Mirror resyncs emit
    a [mirror]/[resync] span; {!Supervisor} events mirror as
    [supervisor]-category instants; {!recover_replicated} emits
    [recovery]-category phase spans. *)

val set_sink : t -> Trace.Sink.t -> unit
(** Attach a trace sink to this instance {e and} to the cluster's NIC
    (so [sci] piece events and [netram] rpc events land in the
    same sink).  Pass {!Trace.Sink.noop} to disable. *)

val sink : t -> Trace.Sink.t

val set_telemetry : t -> Trace.Timeseries.t -> unit
(** Attach a gauge timeseries to this instance {e and} to the cluster's
    NIC ({!Sci.Nic.set_telemetry}), so one call instruments the whole
    stack.  The engine maintains, under the same pure-observer contract
    as the sink:

    - [perseas.undo_tail] — shared undo-log tail across the in-flight
      transactions, updated per [set_range] and reset when the engine
      quiesces; its gauge high-water mark is the worst case between
      samples;
    - [perseas.group_commit_size] — transactions committed by the most
      recent group flush;
    - a sample-time probe exporting every {!stats_fields} counter as
      [perseas.<field>], plus [perseas.epoch], [perseas.live_mirrors],
      [perseas.open_txns], [perseas.staged_txns], [perseas.dirty_log]
      (dirty-range log length) and [perseas.retired_entries].

    Defaults to {!Trace.Timeseries.noop}. *)

val telemetry : t -> Trace.Timeseries.t

(** {1 Self-healing supervision}

    The paper keeps the replication factor up by hand: an operator
    notices a dead PC and re-mirrors.  {!Supervisor} automates exactly
    that loop — probe at transaction boundaries, drop corpses, recruit
    replacements from a spare pool — without adding any background
    concurrency: it only runs when the application calls {!Supervisor.tick},
    so the simulation stays deterministic. *)

type db = t
(** Alias so {!Supervisor}'s own [t] can still name the database. *)

module Supervisor : sig
  type policy = {
    probe_interval : Time.t;
        (** Minimum virtual time between liveness sweeps; ticks inside
            the window skip the probe (losses discovered in-line by the
            data path are still noticed). *)
    max_attempts : int;
        (** Consecutive failed recruitments before giving up; a fresh
            {!add_spare} re-arms the budget. *)
    backoff_initial : Time.t;  (** Delay after the first failed attempt. *)
    backoff_factor : float;  (** Multiplier for each further failure. *)
  }

  val default_policy : policy
  (** 50 µs probe interval, 6 attempts, 100 µs initial backoff,
      doubling. *)

  type event =
    | Mirror_lost of { at : Time.t; node_id : int }
    | Recruited of { at : Time.t; node_id : int; report : resync_report }
    | Attempt_failed of { at : Time.t; node_id : int; attempt : int; reason : string }
    | Gave_up of { at : Time.t; node_id : int; attempts : int }

  type t

  val create : ?policy:policy -> ?target:int -> ?spares:Netram.Server.t list -> db -> t
  (** Supervise [db], keeping its replication factor at [target]
      (default: the factor at creation time) using the given spare
      servers (first come, first recruited). *)

  val add_spare : t -> Netram.Server.t -> unit
  (** Append a server to the spare pool.  Also resets the failure
      budget and backoff — the pool changed, so the run of failures
      that exhausted it no longer describes it. *)

  val tick : t -> unit
  (** One supervision step; call it between transactions.  Probes the
      mirrors (throttled by [probe_interval]), records losses, and
      recruits spares — with exponential backoff between failed
      attempts, flaky spares rotated to the back of the pool — until
      the factor is back at target, the pool is empty, or the budget
      is exhausted.  Never raises: a database that is merely degraded
      must keep committing. *)

  val events : t -> event list
  (** Everything noticed so far, oldest first. *)

  val spares : t -> int list
  (** Node ids waiting in the pool, in recruitment order. *)

  val target : t -> int

  val degraded : t -> bool
  (** Live mirrors below target? *)

  val gave_up : t -> bool
  (** The failure budget is spent; {!add_spare} re-arms it. *)

  val retry_at : t -> Time.t
  (** Earliest virtual instant of the next recruitment attempt. *)

  val set_telemetry : t -> Trace.Timeseries.t -> unit
  (** Register a sample-time probe exporting the supervisor's health:
      [sup.spares] (pool depth), [sup.degraded] (0/1 — below target?),
      [sup.deficit] (mirrors missing from target) and [sup.gave_up]
      (0/1).  Pure observer; no-op on a disabled timeseries. *)
end

(** {1 Engine view} *)

module Engine :
  Txn_intf.S with type t = t and type segment = segment and type txn = txn

(** {1 Sharded multi-primary cluster}

    The paper's engine replicates for availability, not for scale:
    every transaction funnels through one primary.  {!Shard} partitions
    the key space across a set of independent primaries — each with its
    own cluster, clock and mirror set on distinct power supplies — and
    routes single-shard transactions to their owner, so disjoint shards
    commit in full parallelism (each on its own virtual clock; cluster
    time is the frontier across shards).

    Cross-shard transactions do not run 2PC over network RAM.  Instead
    the router adopts STAR-style epoch alternation
    ({!Cluster.Phase}): during the {e partitioned} phase only
    single-shard transactions execute and cross-shard submissions
    queue; periodically the router fences every shard into quiescence
    (reusing the group-commit convoy {!flush} and the epoch machinery —
    fence strictly last per mirror), runs the backlog serially as a
    designated {e single master} on the synchronized clocks, fences the
    convoys out, and switches back.  Both switches emit
    [cluster]/[phase_switch] instants and every cross-shard commit a
    [cluster]/[cross_commit] instant on the involved shards' sinks, so
    {!Trace.Monitor} can check that no cross-shard commit lands inside
    a partitioned phase.

    Crash semantics: single-shard transactions keep the engine's
    per-shard atomicity (the single-packet epoch fence), and a lost
    shard primary recovers from its own mirror set exactly as an
    unsharded engine does ({!recover_replicated} + {!Shard.replace}).
    Cross-shard transactions are atomic under the fence discipline in
    failure-free phases; a crash {e during} a single-master phase can
    commit one shard's half without the other — the documented STAR
    trade against 2PC's blocking and per-transaction round trips. *)

module Shard : sig
  type t

  type shard_stats = {
    per_shard : int array;  (** Single-shard commits routed per shard. *)
    cross_committed : int;
    cross_conflicts : int;
        (** Drain attempts bounced off a still-open single-shard
            transaction's declaration; the cross transaction stays
            queued for the next drain. *)
    backlog : int;  (** Cross-shard transactions still queued. *)
    switches : int;  (** Single-master phases entered. *)
    phase_epoch : int;
  }

  val create : ?strategy:Cluster.Shard_map.strategy -> ?interval:Sim.Time.t -> ?master:int -> db array -> t
  (** One engine per shard, each expected to run on its own cluster
      (own clock, own mirror set).  [strategy] defaults to hash
      routing, [interval] to {!Cluster.Phase.create}'s default, and
      [master] (the shard that runs single-master phases) to 0. *)

  val shards : t -> int
  val db : t -> int -> db

  val replace : t -> shard:int -> db -> unit
  (** Swap a recovered engine in after shard failover. *)

  val owner : t -> key:int -> int
  val phase : t -> Cluster.Phase.t
  val backlog : t -> int

  val now : t -> Sim.Time.t
  (** Cluster time: the frontier (max) across shard clocks. *)

  val fence : t -> unit
  (** Flush every shard's group-commit convoy and synchronize every
      shard clock to the frontier. *)

  val submit : t -> key:int -> (db -> txn -> unit) -> int
  (** Route a single-shard transaction to [key]'s owner and commit it
      there: begin, run the body (which declares with {!set_range} and
      writes), commit.  Returns the owner shard.  Also ticks the phase
      controller first, so a due single-master drain runs before the
      transaction. *)

  val submit_cross : t -> shards:int list -> ((int -> db * txn) -> unit) -> int
  (** Queue a cross-shard transaction for the next single-master phase
      and return its xid.  At drain time the body runs with an accessor
      that opens (on first use) and returns the sub-transaction on each
      involved shard; the router then commits the sub-transactions in
      shard order.  Raises [Invalid_argument] on an empty or
      out-of-range shard list, and the body's accessor raises if asked
      for an undeclared shard. *)

  val drain : t -> int
  (** Force a single-master phase now (no-op on an empty backlog):
      fence, run the backlog serially, fence, switch back.  Returns the
      number of cross-shard transactions committed; conflicted ones
      remain queued. *)

  val tick : t -> unit
  (** Run {!drain} iff the phase controller says one is due
      ({!Cluster.Phase.due}). *)

  val stats : t -> shard_stats
end
