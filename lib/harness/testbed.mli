open Sim

(** Standard experimental setups: each engine on the hardware the paper
    (or its comparison sources) ran it on, all in virtual time.

    Every PERSEAS cluster comes from {!make}: a primary, its mirrors,
    optional named extra nodes and an optional spare workstation, each
    on its own power supply.  RVM runs on one node with a 1997-class
    magnetic disk; RVM-Rio and Vista on one node with a UPS-backed Rio
    file cache. *)

(** A packed engine instance, uniform across engines so workloads and
    benches are engine-generic. *)
module type INSTANCE = sig
  module E : Perseas.Txn_intf.S

  val engine : E.t
  val clock : Clock.t
  val label : string

  val finish : unit -> unit
  (** End-of-run barrier (flushes RVM's pending group commit). *)

  val device : Disk.Device.t option
  (** The disk or Rio device of a single-node baseline; [None] for
      engines without one. *)
end

type instance = (module INSTANCE)

val label : instance -> string
val clock_of : instance -> Clock.t

(** {1 PERSEAS testbeds} *)

type bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  servers : Netram.Server.t list;  (** One memory server per mirror node. *)
  perseas : Perseas.t;
}

val make :
  ?config:Perseas.config ->
  ?params:Sci.Params.t ->
  ?dram_mb:int ->
  ?extras:string list ->
  ?spare:bool ->
  mirrors:int ->
  unit ->
  bed
(** The one PERSEAS cluster layout.  Node 0 is ["primary"], nodes
    [1..mirrors] are ["mirror<i>"] (each exporting a memory server the
    database is mirrored on), then one node per name in [extras]
    (default none; no server is started on them), then, with [spare]
    (default [false]), a ["spare"] workstation last.  Node [i] sits on
    power supply [i] with [dram_mb] (default 64) MB of DRAM.  The ring
    size sets SCI hop counts, so the extras and the spare are part of
    the cost model. *)

val instance : ?label:string -> bed -> instance
(** Engine view of a bed (label default ["PERSEAS-<k>m"]). *)

type perseas_bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  server : Netram.Server.t;  (** Memory server on the mirror node. *)
  perseas : Perseas.t;
}

val perseas_bed :
  ?config:Perseas.config -> ?params:Sci.Params.t -> ?dram_mb:int -> unit -> perseas_bed
(** The paper's cluster: {!make} with one mirror and a spare — primary
    (node 0), mirror (node 1), spare (node 2). *)

val perseas_instance :
  ?config:Perseas.config -> ?params:Sci.Params.t -> ?dram_mb:int -> unit -> instance
(** Engine view of {!perseas_bed} (label ["PERSEAS"]). *)

(** {1 Baseline testbeds} *)

val rvm_instance :
  ?config:Baselines.Rvm.config ->
  ?rio:bool ->
  ?geometry:Disk.Device.magnetic_geometry ->
  ?dram_mb:int ->
  ?device_mb:int ->
  unit ->
  instance
(** [rio:true] gives the RVM-Rio baseline (UPS-backed Rio cache);
    otherwise a magnetic disk of [geometry] (default
    {!Disk.Device.default_geometry}). *)

val vista_instance :
  ?config:Baselines.Vista.config -> ?dram_mb:int -> ?device_mb:int -> unit -> instance

val remote_wal_instance :
  ?config:Baselines.Remote_wal.config -> ?dram_mb:int -> ?device_mb:int -> unit -> instance
(** The Ioanidis-style remote-memory WAL (§2): log mirrored in a remote
    node's memory, database file on a magnetic disk written
    asynchronously. *)

val all_instances : ?dram_mb:int -> ?device_mb:int -> unit -> instance list
(** Fresh [PERSEAS; RVM; RVM-Rio; Vista; RemoteWAL] instances. *)
