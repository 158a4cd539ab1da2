open Sim

(** Churn experiment: a live debit-credit workload runs while a
    seeded failure/repair process pauses and crashes mirror nodes, and
    a {!Perseas.Supervisor} heals the replication factor from a spare
    pool — transient outages come back with an incremental resync,
    rebooted nodes with a full copy.  The oracle is the paper's core
    durability promise: no committed transaction is ever lost. *)

type kind = Pause  (** transient outage; the node's DRAM survives *)
          | Crash  (** node reboot; its exported segments are gone *)

type params = {
  seed : int;
  mirrors : int;  (** initial mirrors = the replication target *)
  spares : int;  (** spare-pool size *)
  duration : Time.t;  (** failure-injection horizon *)
  mtbf : Time.t;  (** mean time between failure injections *)
  outage : Time.t;  (** mean outage before the repair process acts *)
  pause_fraction : float;  (** P(transient pause) vs node crash *)
  policy : Perseas.Supervisor.policy;
  checkpoint_interval : Time.t option;
      (** When set (default [None]), a dedicated extra node (appended
          after the observer, so the checkpoint-free node layout is
          unchanged) holds a {!Perseas.Checkpoint} RAM target and the
          background checkpointer fires every interval of virtual time
          while the churn schedule runs — so supervisor recruitments
          resync incrementally across log truncations, and the final
          kill-the-primary recovery runs on that node, adopting the
          checkpoint in place and reading the chunks committed after
          its cut from the mirror. *)
}

val default_params : params

type injection = { at : Time.t; node : int; kind : kind }

type window = {
  w_node : int;  (** the loss that opened the window *)
  w_kind : kind option;
  w_start : Time.t;
  w_restored : Time.t;
  w_resyncs : Perseas.resync_report list;
      (** the recruitments that closed it *)
}
(** A degraded window: from the moment the factor first drops below
    target until the recruitment that restores it. *)

type report = {
  committed : int;
  outage_retries : int;  (** transactions retried after [All_mirrors_lost] *)
  injections : injection list;  (** oldest first *)
  nodes_hit : int list;
  windows : window list;
  degraded_time : Time.t;
  run_time : Time.t;
  tps : float;  (** committed throughput, outage waits included *)
  incremental_resyncs : int;
  full_resyncs : int;
  incremental_bytes : int;
  full_resync_bytes : int;
  full_copy_bytes : int;  (** what one full copy of the database moves *)
  stats : Perseas.stats;
  factor_restored : bool;
  consistent_under_churn : bool;
  verify_clean : bool;
  committed_data_preserved : bool;
      (** the image recovered on a fresh workstation after killing the
          primary matches the per-segment checksums taken at quiesce *)
  recovered_consistent : bool;
  supervisor_events : Perseas.Supervisor.event list;
}

exception Oracle_violation of string

val run :
  ?params:params ->
  ?telemetry:Trace.Timeseries.t * Time.t ->
  ?postmortem:string ->
  ?sink:Trace.Sink.t ->
  unit ->
  report
(** Build a cluster of primary + mirrors + spares + an observer node
    (each on its own power supply), run the seeded churn schedule, then
    quiesce, scrub, kill the primary and recover on the observer.
    Returns the full report without judging it; {!check} enforces the
    oracle.

    [postmortem] (a directory) attaches a {!Forensics.t} flight
    recorder for the whole run, including the final recovery.  A
    {!Trace.Monitor} alert — or a failed {!check}, which [run] then
    performs itself — dumps the post-mortem bundle into the directory
    and raises {!Oracle_violation}.  The recorder is a pure observer:
    postmortem-on runs are byte-identical to postmortem-off ones.

    [sink] is tee'd next to the flight recorder on the engine's span
    stream for the churn portion of the run (an observer feeding a
    {!Trace.Tail}, typically) — same purity contract.

    [telemetry:(series, interval)] instruments the whole stack — the
    engine, the supervisor, every memory server (including ones respawned
    after a crash) and the NIC — and samples [series] every [interval]
    of virtual time, from the start of the churn schedule through
    quiesce (capped at 4x [duration]).
    The sampler lives on its own event queue, pumped only where the
    clock already advances, so instrumented runs take byte-identical
    scheduling decisions to bare ones.  Derived gauges [rate.tps],
    [rate.bytes_per_s] and [rate.rpc_per_s] are sliding-window rates
    over one sampling interval. *)

val check : report -> unit
(** Raises {!Oracle_violation} unless the factor was restored, the
    TPC-B invariant held under churn and after recovery, every mirror
    scrubbed clean at quiesce, and the recovered image matched the
    committed one byte for byte. *)

val kind_label : kind -> string
val csv_header : string list
val report_rows : report -> string list list
