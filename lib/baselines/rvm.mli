open Sim

(** RVM-style recoverable virtual memory: the write-ahead-logging
    baseline of the paper (Figure 2).

    The database lives in local main memory; [set_range] snapshots
    before-images into an in-memory undo log (for abort), and [commit]
    appends after-image redo records to a log file on stable storage
    and forces it synchronously — the disk access PERSEAS exists to
    eliminate.  When the log fills past a threshold, dirty segments are
    written back to the database file and the log is truncated.

    Instantiating the same code over a {!Disk.Device.Rio} backend gives
    the RVM-Rio baseline: identical logging logic, memory-speed stable
    writes, but still RVM's software path cost.

    [group_commit] batches log forces over N transactions (the
    "sophisticated optimisation" of §6 that PERSEAS still beats): with
    N > 1 a commit's records may reach stable storage only at the
    group's force, trading durability lag for throughput, exactly like
    the real optimisation. *)

type config = {
  log_size : int;
  group_commit : int;  (** Force the log every N commits (1 = always). *)
  software_overhead_commit : Time.t;
      (** RVM library path cost per commit (record building, buffer
          management, syscall) — why RVM-Rio is ~10⁴ tps and not 10⁶. *)
  software_overhead_set_range : Time.t;
  metadata_force : bool;
      (** Charge a file-system metadata update (a far-away device
          write) with every force, as a log file on a real FS does. *)
  truncate_threshold : float;  (** Truncate when used/capacity exceeds this. *)
}

val default_config : config

type t
type segment
type txn

val create : ?config:config -> node:Cluster.Node.t -> device:Disk.Device.t -> unit -> t
(** The device must be large enough for the planned segments plus
    [log_size] plus a metadata block; segment space is claimed by
    {!Engine.malloc} calls before [init_done]. *)

val device : t -> Disk.Device.t
val config : t -> config

val segment_by_name : t -> string -> segment option
val checksum : t -> segment -> int64
val forces : t -> int
(** Synchronous log forces performed so far. *)

val truncations : t -> int

val flush : t -> unit
(** Force any pending group-commit batch (end-of-run barrier so that
    throughput numbers include all log I/O). *)

val recover : ?config:config -> node:Cluster.Node.t -> device:Disk.Device.t -> unit -> t
(** Rebuild the in-memory database from the database file plus a redo
    scan of the log (torn tails are discarded by the log layer).
    Raises [Failure] if the device contents did not survive the crash
    (e.g. Rio after a power outage without UPS). *)

module Engine :
  Perseas.Txn_intf.S with type t = t and type segment = segment and type txn = txn

val name_for : Disk.Device.t -> string
(** "RVM" or "RVM-Rio" depending on the backend. *)
