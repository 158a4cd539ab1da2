(** Systematic crash-point sweep: enumerate every remote packet a
    workload script sends and re-run it once per boundary, crashing a
    node exactly there and holding recovery to an oracle.

    This is the correctness tool behind the paper's §3 claim that the
    single-packet epoch write makes transactions atomic under a crash
    at {e any} instant: a dry run with a counting hook measures the
    packet count [N], then for every k ∈ \[0, N\] a fresh, identical
    environment runs the script, the victim dies just before packet k,
    and the oracle checks that

    + the recovered database equals a legal image — the pre-state, the
      post-state, or a checkpoint the script declared (atomicity);
    + the epoch is strictly monotone across the crash;
    + {!Perseas.verify_mirrors} is clean once the survivors resync.

    Any failure raises {!Oracle_violation}. *)

open Sim

type env = {
  clock : Clock.t;
  cluster : Cluster.t;
  servers : Netram.Server.t list;
      (** Recovery candidates, in probe order (may include nodes that
          are not yet mirrors, e.g. {!attach_scenario}'s joiner). *)
  primary : int;  (** Node id the library runs on. *)
  spare : int;  (** Free node: recovery target, or replacement mirror. *)
  ckpt : Netram.Server.t option;
      (** Checkpoint-target server, when the scenario maintains one:
          the primary sweep recovers on its node with it as a restore
          source, and the {!Ckpt_target} sweep kills its node. *)
  t : Perseas.t;
}

type victim =
  | Primary
      (** Kill the library's node; recover on the spare, or on the
          checkpoint target's node while the scenario keeps a live
          one. *)
  | Mirror of int
      (** Kill the mirror with this index (into {!Perseas.mirrors});
          the primary lives and must finish degraded or roll back. *)
  | Ckpt_target
      (** Kill the checkpoint-target node; the primary lives, every
          commit must land (the post-image is the only legal outcome of
          a kill) and checkpoint operations degrade to typed no-ops
          ({!Perseas.Checkpoint.Target_lost}). *)
  | Recovering of { in_place_first : bool }
      (** Run the script whole, kill the primary, and recover with the
          checkpoint target as a restore source; the node running that
          recovery dies before each of its packets (the sweep counts
          recovery's packets, not the script's), and recovery runs
          again on another node.  With [in_place_first] the first
          recovery runs on the target's own node, adopting its slot in
          place, and the second on the spare; otherwise the spare goes
          first, reading every segment from the mirror, and the second
          adopts in place.  The committed post-image is the only legal
          outcome. *)

type image = Pre | Post | Checkpoint of int

type point = {
  index : int;  (** Packets sent before the crash. *)
  crashed : bool;  (** False only for the final, uncut control run. *)
  image : image;  (** Which legal image the database recovered to. *)
  replayed_records : int;  (** Undo records applied during recovery. *)
  replayed_bytes : int;
  recovery_us : float;
      (** Virtual time of [recover_replicated] (primary victim) or of
          re-attaching a replacement mirror (mirror victim, total
          loss); 0 when nothing had to be rebuilt. *)
  epoch_before : int64;
  epoch_after : int64;
  mismatches : int;  (** [verify_mirrors] entries — 0 or the sweep fails. *)
}

type report = {
  label : string;
  victim : victim;
  total_packets : int;
  points : point list;  (** One per k ∈ \[0, total_packets\]. *)
  old_images : int;
  new_images : int;
  repaired : int;  (** Points whose recovery replayed undo records. *)
}

type scenario = {
  label : string;
  make : unit -> env;
      (** Build a fresh, fully deterministic environment (the sweep
          calls this once per point). *)
  script : env -> checkpoint:(unit -> unit) -> unit;
      (** The workload under test.  Call [checkpoint] at any committed
          intermediate state to add it to the set of legal images. *)
}

exception Oracle_violation of string

val sweep : ?victim:victim -> ?postmortem:string -> scenario -> report
(** Run the full sweep.  [victim] defaults to {!Primary}.  Raises
    {!Oracle_violation} on the first point that breaks the oracle, and
    [Invalid_argument], before the script runs at all, when the
    scenario has no node for [victim] (a mirror index out of range, or
    a checkpoint-target or recovering victim without a target).

    With [postmortem] (a directory), every point flies a
    {!Forensics.t} flight recorder: the engine under test (and, for
    primary sweeps, the recovery) streams into a bounded ring and the
    online {!Trace.Monitor}.  A monitor alert is itself an oracle
    violation, and any violation dumps a post-mortem bundle under
    [postmortem/<scenario>-<victim>-p<K>/] before re-raising.  The
    recorder is a pure observer: sweeps with and without it visit
    byte-identical points. *)

val commit_scenario :
  ?mirrors:int -> ?ranges:int -> ?range_len:int -> ?seg_size:int -> unit -> scenario
(** A debit-credit-style transaction updating [ranges] slices (default
    3, [range_len] bytes each) across three tables — accounts,
    branches, history — under one commit, mirrored [mirrors] times.
    The sweep cuts both the per-range undo pushes and the commit
    propagation at every packet. *)

val overlap_scenario : ?mirrors:int -> ?elision:bool -> ?seg_size:int -> unit -> scenario
(** One committed warm-up range (declared as a checkpoint image), then
    a transaction full of overlapping, adjacent, duplicate and
    fully-covered [set_range] declarations under one commit — the
    {!Perseas.config.redundancy_elision} stress case.  [elision]
    selects the engine config (default [true]); sweeping both settings
    must classify every crash point into the {e same} legal image set,
    since elision changes the packet schedule, never the legal
    images. *)

val attach_scenario : ?mirrors:int -> ?seg_size:int -> unit -> scenario
(** A live database (with one committed transaction behind it) brings
    a new mirror in with {!Perseas.attach_mirror}; the sweep cuts the
    resync at every packet.  The joiner leads the recovery candidate
    list, so a torn copy of the metadata on it (valid magic, tied
    epoch, unparseable segment table) must be skipped by recovery, not
    trusted or fatal. *)

val concurrent_scenario : ?mirrors:int -> ?clients:int -> ?seg_size:int -> unit -> scenario
(** [clients] (default 3) disjoint transactions from distinct clients
    commit into one group flush while a late client's transaction stays
    open across it, then the late one commits and the script drains —
    two group flushes, ≥2 transactions in flight at every cut packet.
    Legal images are exactly pre, the post-batch checkpoint and post:
    a crash at any packet boundary must recover to one of them, which
    is per-transaction atomicity under concurrency (no torn batch, no
    bystander bytes). *)

val checkpoint_scenario : ?mirrors:int -> ?seg_size:int -> unit -> scenario
(** Five single-range commits rotating across the three tables,
    interleaved with every phase of fuzzy checkpointing to a RAM target
    on its own node: a full {!Perseas.Checkpoint.take}, then a second
    checkpoint held open across three commits ([start], one budgeted
    [step], [finalize] — slot zeroing, image shipping, finalize re-ship
    and scrub, and the header/magic/directory publication all get their
    packets cut).  [checkpoint] images are declared after every commit,
    so any crash point must recover to a committed state.  Sweep it
    with every victim: {!Primary} (recovery runs on the surviving
    target's node, adopting its slot in place, and must reject torn
    slots), a {!Mirror}, and {!Ckpt_target} (all commits must still
    land). *)

val recovery_scenario : ?mirrors:int -> ?seg_size:int -> unit -> scenario
(** A checkpointed database with a real tail: three multi-chunk tables
    ([seg_size], default 8 KiB), one commit, a {!Perseas.Checkpoint.take},
    then three commits after the cut into a few chunks, one of them
    spanning a chunk boundary, and an aborted transaction whose
    before-image, left in the mirror's log, recovery replays.  Sweep it
    with both {!Recovering} victims, which cut the recovery; every
    commit declares its image, and a target lost during the take costs
    only the checkpoint, so {!Primary}, {!Mirror} and {!Ckpt_target}
    sweeps of the script hold the oracle too. *)

val shard_commit_scenario : ?mirrors:int -> ?seg_size:int -> unit -> scenario
(** The single-shard commit sweep on a 2-shard {!Sharding.make_bed}
    cluster: the bystander shard commits first (its packets never hit
    the victim's hook — distinct clusters, distinct NICs), then a
    multi-range commit on the victim shard is cut at every packet.
    The env is the victim shard's world; recovery rebuilds it on that
    shard's spare from its own mirrors.  Legal images: pre, the
    post-bystander checkpoint (identical to pre on the victim) and
    post. *)

val shard_fence_scenario : ?mirrors:int -> ?seg_size:int -> unit -> scenario
(** The phase-switch fence sweep: two commits staged on the victim
    shard (group commit 4) ride a convoy out through
    {!Perseas.Shard.fence}, then a queued cross-shard transaction
    drains through a single-master phase — fence, sub-commits on both
    shards, fence.  Every victim-side packet of the convoy, the fences
    and the cross transaction's victim half is cut; recovery must land
    on pre, the post-convoy checkpoint or post (convoys and the
    drained victim half are atomic at every boundary). *)

(** {1 The scenarios by name} *)

val named :
  ?ranges:int -> ?range_len:int -> mirrors:int -> unit -> (string * (scenario * victim list)) list
(** Every canned scenario at [mirrors] mirrors under its command-line
    name, with the victims it is swept by when none is named: both
    {!Recovering} orders for ["recovery"], {!Primary} for the rest.
    [ranges] and [range_len] shape ["commit"].  Raises
    [Invalid_argument] on parameters a scenario rejects. *)

val scenario_names : string list
(** The names {!named} lists, in its order. *)

(** {1 CSV} *)

val csv_header : string list
val report_rows : report -> string list list

val image_label : image -> string
(** ["old"], ["new"] or ["checkpointN"]. *)

val victim_label : victim -> string
val outcome : point -> string
(** {!image_label}, with ["+repair"] appended when recovery replayed
    undo records. *)
