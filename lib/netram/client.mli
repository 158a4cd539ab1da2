open Sim

(** Client side of the reliable network RAM (the [sci_*] functions of
    §4: [sci_get_new_segment], [sci_free_segment], [sci_memcpy],
    [sci_connect_segment]).

    A client runs on a local node and talks to a {!Server} on a remote
    node over the cluster's SCI ring.  Requests (malloc/free/connect)
    are round-trip messages; data movement ([memcpy]) is raw remote
    memory access through the mapped segment, packet by packet. *)

type t

exception Unreachable of string
(** The memory server cannot be reached: its node is down, or it
    rebooted since the segment was mapped (so the mapping — and the
    bytes behind it — no longer exist).  Every data-movement and
    control call raises this instead of a generic [Failure] so that
    callers implementing degraded modes (e.g. PERSEAS dropping a dead
    mirror) can match on liveness errors without masking genuine bugs. *)

val create : cluster:Cluster.t -> local:int -> server:Server.t -> t
(** [local] is the id of the node the client runs on.  Raises
    [Invalid_argument] if client and server share a node. *)

val cluster : t -> Cluster.t
val local_node : t -> Cluster.Node.t
val server : t -> Server.t
val hops : t -> int

val malloc : t -> name:string -> size:int -> Remote_segment.t
(** [sci_get_new_segment]: round trip to the server, which exports a
    fresh 64-byte-aligned segment and maps it for us. *)

val free : t -> Remote_segment.t -> unit
(** [sci_free_segment]. *)

val connect : t -> name:string -> Remote_segment.t option
(** [sci_connect_segment]: re-map an already-exported segment after a
    client crash (or from a different workstation during recovery). *)

val ping : t -> bool
(** Liveness probe: one control round trip (charged {!rpc_time} whether
    it succeeds or times out).  [false] when the server is unreachable —
    node down, rebooted, or transiently partitioned — instead of
    raising, so failure detectors can poll without exception plumbing. *)

(** {1 Data movement}

    All offsets are relative to the segment base.  Every call checks
    the handle is fresh and the range in bounds, moves real bytes, and
    charges the SCI model's virtual time.  Calls through a dead or
    rebooted server raise {!Unreachable}. *)

val write : t -> Remote_segment.t -> seg_off:int -> src_off:int -> len:int -> unit
(** [sci_memcpy] local→remote: copies from the local node's DRAM at
    [src_off] into the remote segment, with the §4 64-byte-alignment
    optimisation (the widening window is the segment itself). *)

val plan_write : t -> ?widen:bool -> Remote_segment.t -> seg_off:int -> src_off:int -> len:int -> Sci.Nic.plan
(** The packet-level plan of {!write}, for fault injection. *)

val dest : t -> Remote_segment.t array -> Sci.Nic.dest
(** The destination whose window [i] is [handles.(i)] on this client's
    server, for plans built without one ({!Sci.Nic.plan_pieces}): a
    plan built against windows of these lengths runs on it with
    {!Sci.Nic.run_to}, which refuses a piece past its handle's end, as
    {!write} does.  Every handle is checked like {!write} checks its
    handle.  A handle's freshness cannot change while its server
    stays alive, so a caller that keeps the destination need only
    {!check} the server before each run; it must build a new one when
    it frees a handle.  PERSEAS builds one per mirror and runs each
    eager phase's plans on every mirror's. *)

val reachable : t -> bool
(** Whether the server is up and has not rebooted since the client
    mapped it — free, unlike {!ping}. *)

val check : t -> unit
(** Raise {!Unreachable} unless {!reachable}. *)

val read : t -> Remote_segment.t -> seg_off:int -> dst_off:int -> len:int -> unit
(** Remote→local copy (recovery path). *)

val read_to_image : t -> Remote_segment.t -> seg_off:int -> dst:Mem.Image.t -> dst_off:int -> len:int -> unit
(** Remote→arbitrary-image copy; recovery onto a {e different} node
    reads into that node's DRAM. *)

val read_planner :
  t -> Remote_segment.t -> dst:Mem.Image.t -> seg_off:int -> dst_off:int -> len:int -> Sci.Nic.plan
(** The packet-level plans of {!read_to_image}, for fault injection:
    [read_planner t h ~dst] checks the handle once and returns the plan
    of each read of [h] into [dst]; each plan still checks its range. *)

val write_u64 : t -> Remote_segment.t -> seg_off:int -> int64 -> unit
(** One small remote store (a single 16-byte SCI packet — atomic). *)

val read_u64 : t -> Remote_segment.t -> seg_off:int -> int64

val rpc_time : t -> Time.t
(** Virtual cost of one control round trip (charged by malloc/free/
    connect). *)
