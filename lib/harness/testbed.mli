open Sim

(** Standard experimental setups: each engine on the hardware the paper
    (or its comparison sources) ran it on, all in virtual time.

    PERSEAS runs on a three-node cluster (primary, mirror on a separate
    power supply, and a spare workstation for availability
    experiments); RVM runs on one node with a 1997-class magnetic disk;
    RVM-Rio and Vista on one node with a UPS-backed Rio file cache. *)

(** A packed engine instance, uniform across engines so workloads and
    benches are engine-generic. *)
module type INSTANCE = sig
  module E : Perseas.Txn_intf.S

  val engine : E.t
  val clock : Clock.t
  val label : string

  val finish : unit -> unit
  (** End-of-run barrier (flushes RVM's pending group commit). *)
end

type instance = (module INSTANCE)

val label : instance -> string
val clock_of : instance -> Clock.t

(** {1 PERSEAS testbed} *)

type perseas_bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  server : Netram.Server.t;  (** Memory server on the mirror node. *)
  perseas : Perseas.t;
}

val perseas_bed :
  ?config:Perseas.config -> ?params:Sci.Params.t -> ?dram_mb:int -> unit -> perseas_bed
(** Primary (node 0), mirror (node 1, separate power supply), spare
    (node 2, third supply). *)

val perseas_instance : ?config:Perseas.config -> ?dram_mb:int -> unit -> instance

type replicated_bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  servers : Netram.Server.t list;  (** One memory server per mirror node. *)
  perseas : Perseas.t;
}

val replicated_bed :
  ?config:Perseas.config -> ?params:Sci.Params.t -> ?dram_mb:int -> mirrors:int -> unit -> replicated_bed
(** Primary on node 0, [mirrors] mirror nodes after it, each on its own
    power supply; the database is mirrored on all of them. *)

type checkpoint_bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  server : Netram.Server.t;  (** Memory server on the mirror node. *)
  ckpt_server : Netram.Server.t;  (** Memory server on the checkpoint node. *)
  perseas : Perseas.t;
}

val checkpoint_bed : unit -> checkpoint_bed
(** Primary (node 0), mirror (node 1), checkpoint target (node 2) and
    spare (node 3), each on its own power supply, 64 MB of DRAM each.
    The target's server is created but not yet attached
    ({!Perseas.Checkpoint.set_ram_target}). *)

val replicated_instance :
  ?config:Perseas.config -> ?dram_mb:int -> mirrors:int -> unit -> instance
(** Engine view of {!replicated_bed} (label ["PERSEAS-<k>m"]). *)

(** {1 Baseline testbeds} *)

val rvm_instance :
  ?config:Baselines.Rvm.config -> ?rio:bool -> ?dram_mb:int -> ?device_mb:int -> unit -> instance
(** [rio:true] gives the RVM-Rio baseline (UPS-backed Rio cache). *)

val vista_instance :
  ?config:Baselines.Vista.config -> ?dram_mb:int -> ?device_mb:int -> unit -> instance

val remote_wal_instance :
  ?config:Baselines.Remote_wal.config -> ?dram_mb:int -> ?device_mb:int -> unit -> instance
(** The Ioanidis-style remote-memory WAL (§2): log mirrored in a remote
    node's memory, database file on a magnetic disk written
    asynchronously. *)

val all_instances : ?dram_mb:int -> ?device_mb:int -> unit -> instance list
(** Fresh [PERSEAS; RVM; RVM-Rio; Vista; RemoteWAL] instances. *)
