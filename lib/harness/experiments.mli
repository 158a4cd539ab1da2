(** One function per paper artefact (see DESIGN.md's experiment index),
    plus the measurement cells the bench gate and the CLI share with
    them.

    Every experiment prints an aligned table to stdout and saves the
    same rows as CSV under [results/].  All numbers are virtual-time
    and deterministic. *)

(** {1 The registry} *)

val print_list : unit -> unit
(** One ["  <name>  <description>"] line per experiment. *)

val run : string list -> (unit, string) result
(** Run the named experiments in order, or every experiment in
    DESIGN.md order when the list is empty.  An unknown name runs
    nothing and returns [Error] naming every unknown one. *)

(** {1 Latency mixes (R6, R7, R12)} *)

type latency_mix = Debit_credit_mix | Large_update_mix

val latency_mixes : latency_mix list
val mix_label : latency_mix -> string

val mix_of : latency_mix -> Measure.mix
(** Small debit-credit, or 16 KB synthetic updates over an 8 MB
    database. *)

val traced_run :
  ?tail:Trace.Tail.t ->
  mix:latency_mix ->
  mirrors:int ->
  warmup:int ->
  iters:int ->
  unit ->
  Measure.result * Trace.Sink.t
(** Run one workload mix on a fresh [mirrors]-way testbed with a memory
    trace sink attached; [result.phases] holds the per-phase breakdown
    of the measured window, and the returned sink holds every span and
    event of the run (warmup included) for export.  Pass [tail] to feed
    each measured transaction's latency, spans and events into a
    {!Trace.Tail} (per-phase percentiles, worst-K exemplars). *)

val timeline : latency_mix -> unit
(** One instrumented workload run: gauge samples on a virtual-time grid
    to [results/timeline_<mix>.csv], plus a Chrome trace (spans,
    instants and counter tracks) to [results/timeline_<mix>.json] for
    Perfetto. *)

(** {1 R12: tail attribution} *)

type explained
(** One fully-instrumented cell: its measured result, the {!Trace.Tail}
    and {!Costmodel} that rode along, and the NIC counter deltas over
    the traced window. *)

val explain_run :
  ?config:Perseas.config ->
  mix:latency_mix ->
  mirrors:int ->
  warmup:int ->
  iters:int ->
  unit ->
  explained
(** One fully-instrumented cell: a fresh [mirrors]-way testbed with a
    recording ring, a {!Trace.Tail}, and a {!Costmodel} tee'd on the
    engine's span stream, NIC counters reset at attach time so the
    model's settled totals are comparable to the hardware deltas. *)

val print_explained : ?exemplars:int -> explained -> unit
(** The per-cell report the [explain] experiment and [perseas_cli
    explain] both print: per-phase and per-mirror latency percentiles
    with each phase's share of the p99, the cost model's predicted
    packets and bytes per class against the NIC's, and the worst
    [exemplars] (default 3) transactions' cross-node timelines. *)

val explain_verdict : explained -> string option
(** The R12 gates: zero cost-model drift, no unfenced or unattributed
    commit units, settled predictions equal to the NIC counter delta,
    named phases attributing at least 95 % of the measured p99 (the sum
    of their p99s over it), and a retained exemplar.  [None] when all
    hold, else the first that failed. *)

val exemplar_coverage : Trace.Tail.exemplar -> float
(** Fraction of the exemplar's end-to-end latency covered by named
    [txn] phase spans (1.0 = fully attributed). *)

(** {1 Reports shared with the CLI} *)

val run_churn : ?params:Churn.params -> unit -> Churn.report
(** One {!Churn.run} (default {!Churn.default_params}), printed: the
    degraded-window table, a summary line and the oracle's verdict.
    Raises {!Churn.Oracle_violation} when {!Churn.check} fails.  Writes
    no file: only the [churn] experiment saves [results/churn.csv]. *)

val availability_table : ?params:Availability.params -> trials:int -> unit -> string list list
(** Simulate every {!Availability.standard_deployments} entry for
    [trials] trials under [params] (default
    {!Availability.default_params}), print the table and return its
    rows. *)

val sharding_header : string list

val sharding_rows : Sharding.cell list -> string list list
(** One row per cell under {!sharding_header}; the speedup column is
    the cell's tps over that of the same cross-shard mix's 1-shard cell
    in the list, ["-"] when there is none. *)

(** {1 Cells shared with the bench gate and the CLI} *)

type concurrency_cell = {
  cc_mirrors : int;
  cc_clients : int;
  cc_committed : int;
  cc_elapsed_us : float;
  cc_tps : float;
  cc_pkts_per_txn : float;
  cc_conflicts : int;
  cc_flushes : int;
}

val concurrency_cell : mirrors:int -> clients:int -> warmup:int -> txns:int -> concurrency_cell
(** R9: debit-credit over 1024 branches of 250 accounts (seed 97) under
    [clients] interleaved clients on a fresh [mirrors]-way testbed,
    group commit of two client rounds ([2 * clients]; one client runs
    eager).  [warmup] commits, then [txns] measured ones with fresh NIC
    counters. *)

type checkpoint_cycle = {
  generation : int64;
  cut : int64;  (** Epoch the checkpoint was published at. *)
  shipped_bytes : int;
  truncated_bytes : int;  (** Undo bytes the checkpoint truncated. *)
  undo_hwm_before : int;
  undo_hwm_after : int;
  recovery_us : float;
  recovered_epoch : int64;
  mirrors_clean : bool;
  committed_kept : bool;  (** The rebuilt image equals the committed one. *)
  db_bytes : int;
  segments : int;
}

val checkpoint_cycle :
  ?restore:[ `Checkpoint | `Mirror | `Mirror_helper ] ->
  txns:int ->
  tail:int ->
  unit ->
  checkpoint_cycle
(** The checkpoint-recovery cycle: default-size debit-credit on a
    primary, mirror, checkpoint target and spare; [txns] transactions,
    one fuzzy checkpoint to the target's RAM, [tail] more, then the
    primary dies.  [restore] picks the rebuild: [`Checkpoint] (default)
    on the target's node from the slot plus the chunks written after
    the cut; [`Mirror] plain mirror fetch onto the spare; [`Mirror_helper]
    the same with the target's node as a helper. *)

val sharding_params : ?scale:int -> shards:int -> unit -> Workloads.Debit_credit.params
(** R13's bank per shard: a TPC-scaled bank of [scale] branches
    (default that of {!Workloads.Debit_credit.scaled_params} at 10 000
    tps), 10^5 Zipf-hot accounts each, split evenly across [shards],
    floored at one branch per shard. *)

val sharding_cell :
  ?mirrors:int ->
  ?clients:int ->
  ?scale:int ->
  ?total:int ->
  shards:int ->
  cross_per_100:int ->
  unit ->
  Sharding.cell
(** One R13 point over {!sharding_params}; see {!Sharding.run_cell}. *)
