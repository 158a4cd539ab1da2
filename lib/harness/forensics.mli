(** Flight recorder + online protocol monitor, bundled for the fault
    harnesses.

    One [t] owns a bounded in-memory ring of recent spans/events and a
    {!Trace.Monitor}, teed into a single sink that {!attach} hands to a
    {!Perseas} engine.  Recording is a pure observation: an attached
    run stays byte-identical (packet counts, final clock, images) to an
    unattached one.  When an oracle fails, {!dump} writes a post-mortem
    bundle from whatever the ring still holds. *)

type t

val create : ?on_alert:(Trace.Monitor.alert -> unit) -> unit -> t
(** Fresh recorder keeping the latest 16384 spans and 16384 events —
    events are per SCI piece, about half as many as spans.  [on_alert]
    fires synchronously on each monitor violation. *)

val sink : t -> Trace.Sink.t
(** The tee (ring + monitor); pass to {!Perseas.set_sink} or
    {!Perseas.recover_replicated}'s [?sink]. *)

val monitor : t -> Trace.Monitor.t
val alerts : t -> Trace.Monitor.alert list
val alert_count : t -> int

val attach : t -> Perseas.t -> unit
(** [Perseas.set_sink engine (sink t)]. *)

val timelines : t -> Trace.Causal.timeline list
(** Causal cross-node timelines reconstructed from the ring's current
    contents. *)

val dump : t -> dir:string -> cause:string -> ?stats:Perseas.stats -> unit -> string
(** Write the post-mortem bundle into [dir] (created as needed) and
    return it: [header.json] (cause, ring occupancy, separate
    span/event drop counts, rendered alerts), [trace.json] (Perfetto),
    [causal.txt] (per-transaction cross-node timelines), and — when
    [stats] is given — [stats.json] (engine counters). *)
