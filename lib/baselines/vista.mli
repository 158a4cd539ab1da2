open Sim

(** Vista: the undo-log-only recoverable memory over the Rio file cache
    (Lowell & Chen), the fastest prior system the paper compares with.

    The database itself lives in Rio-protected memory, so every update
    is durable the moment it is written — no redo log and no data copy
    at commit.  [set_range] writes the before-image into a Rio-protected
    undo region; [commit] is a single 8-byte epoch store that
    invalidates the undo records (the same commit-point trick PERSEAS
    uses, but against local protected memory instead of a remote
    mirror).  Recovery applies current-epoch undo records.

    Vista's weakness, which PERSEAS targets, is operational: it only
    exists on top of Rio (a modified OS), and a long-lasting crash of
    the machine keeps the data hostage even though it is safe — there
    is no second copy elsewhere. *)

type config = {
  undo_capacity : int;
  max_segments : int;
  redundancy_elision : bool;
      (** First-write-only undo logging (default): re-declared
          sub-ranges are not logged again — the original before-image
          is the one recovery restores.  Matches
          {!Perseas.config.redundancy_elision} so the cross-engine
          comparison stays honest; disable for the naive
          one-record-per-call oracle. *)
  software_overhead_commit : Time.t;  (** Vista's path is a few stores. *)
}

val default_config : config

type t
type segment
type txn

val create : ?config:config -> node:Cluster.Node.t -> device:Disk.Device.t -> unit -> t
(** [device] must be a Rio-backed device (Vista requires Rio); raises
    [Invalid_argument] on a magnetic backend. *)

val device : t -> Disk.Device.t
val epoch : t -> int64
val segment_by_name : t -> string -> segment option
val checksum : t -> segment -> int64

val recover : ?config:config -> node:Cluster.Node.t -> device:Disk.Device.t -> unit -> t
(** Rebuild from the Rio-protected contents after a crash the cache
    survived; rolls back the in-flight transaction from the undo
    region.  Raises [Failure] if the cache was lost (power outage
    without UPS, hardware error). *)

module Engine :
  Perseas.Txn_intf.S with type t = t and type segment = segment and type txn = txn
