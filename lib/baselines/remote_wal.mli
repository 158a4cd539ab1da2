open Sim

(** The Remote-WAL baseline: Ioanidis, Markatos & Sevaslidou's scheme
    discussed in §2 of the paper — keep the write-ahead log replicated
    in (local and) remote main memory, acknowledge commits as soon as
    the records are in remote memory, and write the log to disk
    {e asynchronously} in the background.

    The paper's critique, which this model reproduces: all transaction
    data still flows to the disk, so under sustained load the
    asynchronous writes back up, the write buffer fills, and commits
    stall at disk throughput.  A short burst commits at network speed;
    a long run converges to [drain_bytes_per_s / bytes_per_commit].

    Recovery uses the remote log replica: the database file (written at
    checkpoints) plus a replay of the remotely-mirrored records — so a
    primary crash loses nothing that was acknowledged, like PERSEAS,
    but unlike PERSEAS the steady-state throughput is the disk's. *)

type config = {
  log_capacity : int;  (** Remote log replica size; full ⇒ checkpoint. *)
  write_buffer : int;  (** Async disk write buffer (the stall threshold). *)
  drain_bytes_per_s : float;
      (** Effective background disk-write rate for log traffic
          (seek-bound page writes, not raw media rate). *)
  software_overhead_commit : Time.t;
}

val default_config : config

type t
type segment
type txn

val create :
  ?config:config ->
  client:Netram.Client.t ->
  device:Disk.Device.t ->
  unit ->
  t
(** [client] runs on the primary and mirrors the log into the remote
    node's memory; [device] holds the database file and absorbs the
    background log traffic. *)

val config : t -> config
val segment_by_name : t -> string -> segment option
val checksum : t -> segment -> int64
val checkpoints : t -> int
val stall_time : t -> Time.t
(** Total virtual time commits spent waiting for the async writer. *)

val recover :
  ?config:config ->
  cluster:Cluster.t ->
  local:int ->
  server:Netram.Server.t ->
  device:Disk.Device.t ->
  unit ->
  t
(** Rebuild on any node reachable from the log's memory server: read
    the database file from [device] (checkpoint state) and replay the
    remotely-mirrored log records up to the committed tail. *)

module Engine :
  Perseas.Txn_intf.S with type t = t and type segment = segment and type txn = txn
