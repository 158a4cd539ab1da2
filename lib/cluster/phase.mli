(** STAR-style phase controller for the sharded cluster.

    Epochs alternate between a {e partitioned} phase — single-shard
    transactions only, every primary committing in parallel on its own
    mirror set — and a periodic {e single-master} phase in which one
    designated master drains the queued cross-shard backlog while the
    other shards are quiesced (PAPERS.md: "STAR: Scaling Transactions
    through Asymmetric Replication").  This module is the pure state
    machine over virtual time: phase kind, phase epoch and backlog.
    Fencing the shards and executing the backlog is the router's job
    ([Perseas.Shard]). *)

open Sim

type kind = Partitioned | Single_master

type t

val create : ?interval:Time.t -> ?master:int -> unit -> t
(** Defaults: 200 µs partitioned interval, master shard 0.  Raises
    [Invalid_argument] on a non-positive interval. *)

val kind : t -> kind
val kind_label : kind -> string
(** ["partitioned"] / ["single_master"] — the wire spelling of the
    [phase] arg on trace instants, which {!Trace.Monitor} matches. *)

val epoch : t -> int
(** Phase epoch: increments on every switch, either direction. *)

val master : t -> int
val interval : t -> Time.t
val backlog : t -> int
val drained : t -> int
(** Cross-shard transactions committed across all drains. *)

val since : t -> Time.t
(** Start instant of the current phase. *)

val enqueue : t -> unit
(** Note one queued cross-shard transaction. *)

val due : t -> now:Time.t -> bool
(** True when a single-master drain should run: the controller is in
    the partitioned phase, cross-shard work is waiting, and the phase
    has run at least [interval] — so cross-shard latency is bounded by
    the interval while single-shard throughput pays one fence per
    interval at most. *)

val begin_single_master : t -> at:Time.t -> unit
(** Raises [Invalid_argument] when already single-master. *)

val end_single_master : t -> drained:int -> at:Time.t -> unit
(** Return to the partitioned phase, retiring [drained] transactions
    from the backlog (conflicted ones may remain queued for the next
    drain).  Raises [Invalid_argument] when not in single-master phase
    or on an out-of-range drained count. *)

val single_master_phases : t -> int
(** Number of single-master phases entered. *)
