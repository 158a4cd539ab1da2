(** The paper's analytic packets/bytes-per-operation equations, run
    online as a trace observer and checked against the packet counts
    of the NIC's piece stream.

    Parameterised by the engine's {!Perseas.config} (mirror traffic is
    per-node so the mirror factor falls out of the per-node check,
    [group_commit] selects slot stride and convoy packing,
    [redundancy_elision] the first-write-only logging and run
    coalescing, [optimized_memcpy] the 64-byte widening) and the NIC's
    {!Sci.Params} line geometry.  The model replays the engine's
    write-set arithmetic from the coordinates the [set_range] spans
    carry, predicts every commit unit's packet cost per node, and
    settles the account the moment that unit's fence piece lands —
    raising a typed {!drift} alert whenever measured and predicted
    packets or bytes disagree at all.

    It is deliberately independent of the engine's own dry runs: the
    packetisation and widening arithmetic is re-derived here, never
    read back from [Sci], so an engine bug cannot silently agree with
    itself.

    Predictions are exact for sequential runs; concurrent interference
    (doomed transactions, stale-record re-push, log compaction)
    surfaces as drift — which is the point. *)

type cost = { pkts64 : int; pkts16 : int; bytes : int }

val cost_packets : cost -> int
(** Total packets of both kinds. *)

type drift = {
  d_unit : string;  (** Commit-unit key: ["t<id>"] (eager) or ["c<n>"] (convoy). *)
  d_node : int;
  d_class : string;
  d_predicted : cost;
  d_measured : cost;
}

val describe : drift -> string

type t

val create :
  ?tracking:int list ->
  ?on_drift:(drift -> unit) ->
  config:Perseas.config ->
  params:Sci.Params.t ->
  unit ->
  t
(** The model claims exactness: any packet or byte gap per (unit,
    node) is an alert.  Set [tracking] to the database's segment sizes,
    in index order, when the engine keeps a dirty-chunk list — attach
    the model right after a checkpoint is published, so the list stands
    empty: every commit unit then also appends one entry per run of
    chunks it touched, which the model numbers from those sizes and
    {!Layout.chunk_bytes}, and each later checkpoint's finalize instant
    starts the list over.  [on_drift] fires synchronously per alert. *)

val sink : t -> Trace.Sink.t
(** An {!Trace.Sink.observer} feeding the model; tee it next to the
    recording ring (attach after setup, and reset the NIC counters at
    the same point if window totals will be compared). *)

val event : t -> Trace.Event.t -> unit
(** Feed one event by hand — the seeded-mutation tests replay corrupted
    streams through it. *)

val alerts : t -> drift list
(** Oldest first. *)

val drift_count : t -> int

val units_checked : t -> int
(** (unit, node) fences settled so far. *)

val predicted_total : t -> cost
(** Sum of predictions over settled units — with zero drift and no
    unattributed traffic this equals the NIC counter delta over the
    window. *)

val unattributed : t -> cost
(** Traffic carrying no commit-unit key (reads, recovery, checkpoint
    pushes, setup) — assert zero over a steady-state window. *)

val pending : t -> int
(** Open or staged transactions plus unfenced (unit, node) ledgers —
    zero once every commit unit has fenced. *)

val classes : t -> (string * cost * cost) list
(** Per packet class ([undo]; [data]; [segmeta]; [fence]):
    [(class, predicted, measured)] totals over settled units — the
    model-vs-measured table. *)
