(** The memory server process (paper §4).

    Runs on the remote workstation; accepts [remote malloc] and
    [remote free] requests and manipulates its node's physical memory,
    keeping a directory of exported segments by name so that a client
    that crashed — or a brand-new workstation taking over recovery —
    can reconnect to existing segments with [connect_segment].

    The directory lives with the server process: if the {e server's}
    node crashes, exports are gone (and so are the mirrored bytes); the
    client-side library is what survives that case, by re-mirroring. *)

type t

val create : Cluster.Node.t -> t
(** Start a server on a node.  Raises [Failure] if the node is down. *)

val node : t -> Cluster.Node.t

val dram : t -> Mem.Image.t
(** The node memory the exports live in, taken when the server started.
    A crash wipes that image in place, so it never changes; whether the
    server can still be reached is {!is_alive}'s question. *)

val is_alive : t -> bool
(** False once the hosting node has crashed (even after restart: a
    restarted node needs a fresh server and has lost all exports), and
    while the server is {!pause}d. *)

val pause : t -> unit
(** Model a transient outage — a network partition, an overloaded or
    wedged server process: clients see {!Client.Unreachable} exactly as
    for a crash, but the node stays up, so the exported segments (and
    the bytes behind them) survive.  {!resume} ends the outage with the
    directory intact — the case PERSEAS' incremental resync exploits. *)

val resume : t -> unit
(** End a {!pause}.  A server whose node crashed stays dead. *)

val set_telemetry : t -> Trace.Timeseries.t -> label:string -> unit
(** Register a sample-time probe exporting [netram.<label>.alive] and
    [netram.<label>.paused] (0/1) gauges — the server's liveness as a
    time series.  Pure observer; no-op on a disabled timeseries. *)

val export : t -> name:string -> size:int -> Remote_segment.t
(** Allocate [size] bytes of the node's memory (64-byte aligned, so
    mirrored copies packetise as whole SCI buffers) and register them
    under [name].  Raises [Failure] if the server is dead, the name is
    taken, or memory is exhausted. *)

val release : t -> Remote_segment.t -> unit
(** Free an exported segment and revoke its handle (clearing
    [Remote_segment.exported]).  Raises [Failure] on a stale handle or
    unknown export. *)

val lookup : t -> name:string -> Remote_segment.t option
(** The [connect_segment] directory query. *)

val exports : t -> Remote_segment.t list
val exported_bytes : t -> int
