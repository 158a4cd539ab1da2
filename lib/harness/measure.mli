open Sim

(** Virtual-time measurement protocol: warm up, then measure a number
    of transactions against the engine's clock.  Results are exact and
    deterministic — the "clock" only moves when a cost model charges
    it. *)

type result = {
  tps : float;  (** Transactions per (virtual) second. *)
  mean_us : float;  (** Mean transaction latency. *)
  p50_us : float;
  p99_us : float;
  elapsed : Time.t;  (** Total virtual time of the measured phase. *)
  iters : int;
  phases : Trace.phase_stat list;
      (** Per-phase latency breakdown of the measured window, from the
          spans [sink] collected — empty without a [sink]. *)
}

val run :
  clock:Clock.t ->
  ?sink:Trace.Sink.t ->
  ?tail:Trace.Tail.t ->
  ?finish:(unit -> unit) ->
  warmup:int ->
  iters:int ->
  (int -> unit) ->
  result
(** [run ~clock ~warmup ~iters tx] executes [tx i] for [warmup] rounds
    unmeasured, then [iters] measured rounds (with per-transaction
    latencies), calling [finish] before reading the final clock so
    buffered work (group commit) is accounted.  Pass a memory [sink]
    (already attached to the engine, e.g. via {!Perseas.set_sink}) to
    get the per-phase breakdown of the measured window in [phases];
    warmup spans are excluded by cursor, not by clearing the sink.
    Pass [tail] to feed every measured transaction — latency, its span
    window, its SCI pieces — into a {!Trace.Tail} for per-phase
    percentiles and worst-K exemplar retention (window scoping needs
    the same memory [sink]; without one only latencies are fed). *)

val pp_result : Format.formatter -> result -> unit

(** {1 Workload windows} *)

type mix =
  | Debit_credit of Workloads.Debit_credit.params
  | Order_entry of Workloads.Order_entry.params
  | Synthetic of { db_size : int; tx_size : int }
  | Overlap of { db_size : int }
      (** The redundancy-elision stress mix: twelve overlapping 64-byte
          pieces inside a 512-byte window per transaction. *)

val workload :
  ?seed:int ->
  ?reset:(unit -> unit) ->
  ?observe:(float -> unit) ->
  ?sink:Trace.Sink.t ->
  ?tail:Trace.Tail.t ->
  Testbed.instance ->
  mix ->
  warmup:int ->
  iters:int ->
  result
(** The one measured-window runner.  Sets up [mix]'s database on the
    instance, calls [reset] (attach observers, zero counters: anything
    that must see the transactions but not the set-up), then {!run}s
    [warmup] + [iters] transactions drawn from an rng seeded with
    [seed] (default 7 for debit-credit, 11 for order-entry, 42 for
    synthetic, 97 for overlap).  [observe] gets the latency in us of
    every transaction, warmup included.  Fails if a debit-credit or
    order-entry database ends inconsistent. *)
