open Sim

(** Consumers of the {!Trace.Timeseries} gauge series: the instrumented
    churn run, a cross-check of the sampled series against the
    supervisor's event log, CSV emission, and a [top]-style textual
    dashboard of cluster health at the end of a run. *)

val instrumented_churn :
  ?params:Churn.params ->
  ?interval:Time.t ->
  ?tail:Trace.Tail.t ->
  unit ->
  Churn.report * Trace.Timeseries.t
(** {!Churn.run} with a live timeseries attached; deterministic per
    seed, and byte-identical in behaviour to an uninstrumented run.
    [tail]'s observer sink is tee'd onto the engine span stream, so
    its per-phase histograms cover the whole churn run live. *)

type agreement = {
  windows_total : int;  (** degraded windows in the supervisor log *)
  windows_seen : int;  (** of those, windows the sampler caught *)
  degraded_signals : int;
      (** degraded evidence in the series: samples with [sup.degraded]
          set, plus consecutive pairs across which the cumulative
          [perseas.degraded_us] gauge grew — the latter catches windows
          that open and close entirely between two pumps *)
  matched_signals : int;  (** of those, overlapping some window *)
}

val agreement :
  ?slack:Time.t ->
  target:int ->
  samples:Trace.Timeseries.sample list ->
  Perseas.Supervisor.event list ->
  agreement
(** Cross-check: every degraded signal in the series must overlap some
    supervisor-logged window, within [slack] (default 5 ms — the
    sampler labels with grid time but reads state at pump time, so a
    signal can sit a whole resync copy before the state it describes;
    slack only needs to be small against the time between failures). *)

val check_agreement : agreement -> unit
(** Raises [Failure] when the series and the log disagree: a degraded
    signal outside every window, or logged windows with no degraded
    evidence in the series at all. *)

val csv : tel:Trace.Timeseries.t -> string list * string list list
(** [(header, rows)] of the full series — one row per sample, one
    column per gauge, missing gauges as 0. *)

val top : ?tail:Trace.Tail.t -> Churn.report -> Trace.Timeseries.t -> string
(** The dashboard: replication health, workload and healing totals,
    network counters, per-server liveness and sparklines, rendered
    from a finished instrumented run. *)
