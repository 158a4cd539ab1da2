open Sim

(** Phase-level tracing against the virtual clock.

    PERSEAS's whole claim is {e where} the microseconds go — three
    memory copies, NIC packetisation, no disk — so the instrumented
    components record structured {!Span}s (a named interval of virtual
    time) and {!Event}s (a named instant) into a {!Sink}.  Tracing is
    an observer, never a participant: it reads the clock but never
    advances it, and it never sends or suppresses a packet, so a run
    with tracing enabled is byte-identical (packet counts, final
    clock) to a run without.  The no-op sink makes the disabled case a
    single branch.

    The span taxonomy instrumented across the stack (category in
    brackets):

    - [txn]: [begin], [set_range], [local_undo], [remote_undo] (one
      span per mirror, arg [mirror]), [in_place_write], [commit],
      [commit_propagate] (per mirror), [commit_fence] (per mirror —
      the single-packet epoch write), [abort].  These are disjoint
      intervals that together cover every clock charge of a
      transaction, so their per-phase sums equal the end-to-end
      virtual latency.
    - [recovery]: [probe], [repair], [fetch_db], [resync_mirrors].
    - [mirror]: [resync] — one span per {!Perseas.attach_mirror} /
      [recruit_mirror], arg [mode].
    - [sci]: instant events [piece], one per applied SCI piece (one
      contiguous copy of a transfer plan), stamped when its last packet
      landed, args [tag] (rpc vs bulk), [full64], [part16], [streamed]
      (packet counts), [bytes] and [dir].
    - [supervisor]: instant events [mirror_lost], [recruited],
      [attempt_failed], [gave_up]. *)

module Span : sig
  type t = {
    name : string;  (** Phase name, e.g. ["commit_fence"]. *)
    cat : string;  (** Category, e.g. ["txn"]. *)
    start : Time.t;
    stop : Time.t;
    args : (string * string) list;
  }

  val duration : t -> Time.t
  val duration_us : t -> float
  val pp : Format.formatter -> t -> unit
end

module Event : sig
  type t = { name : string; cat : string; at : Time.t; args : (string * string) list }

  val pp : Format.formatter -> t -> unit
end

(** {1 Sinks} *)

module Sink : sig
  type t

  val noop : t
  (** Drops everything; {!enabled} is [false], so instrumentation
      sites skip even the clock reads.  This is the default wired into
      every component. *)

  val memory : ?capacity:int -> unit -> t
  (** Records spans and events in order.  Without a capacity the sink
      is unbounded (the default, and what the tests rely on); with
      [capacity] it keeps the most recent [capacity] spans and the most
      recent [capacity] events in two rings, silently dropping the
      oldest — {!dropped_spans} / {!dropped_events} count the
      casualties {e separately per ring}, and {!span_count} /
      {!event_count} keep counting everything ever recorded so cursors
      survive the wrap.  Raises [Invalid_argument] on a non-positive
      capacity. *)

  val observer : on_span:(Span.t -> unit) -> on_event:(Event.t -> unit) -> t
  (** A sink that forwards everything to callbacks and stores nothing —
      how {!Monitor} taps the stream.  Read accessors below return
      empty/zero for it. *)

  val tee : t list -> t
  (** Fan one stream out to several sinks (a recording ring plus an
      online monitor, typically).  Read accessors delegate to the first
      {!memory} child, so the tee reads as the recording it carries;
      [noop] children are dropped, and an empty tee is [noop]. *)

  val enabled : t -> bool

  val span :
    ?args:(string * string) list -> t -> cat:string -> name:string -> start:Time.t -> stop:Time.t -> unit
  (** Record a completed span.  No-op on {!noop}. *)

  val instant : ?args:(string * string) list -> t -> cat:string -> name:string -> at:Time.t -> unit

  val spans : t -> Span.t list
  (** Everything recorded so far, oldest first ([[]] on {!noop}). *)

  val events : t -> Event.t list

  val span_count : t -> int
  val event_count : t -> int

  val dropped_spans : t -> int
  (** Spans evicted by a capped sink's ring; 0 when unbounded. *)

  val dropped_events : t -> int

  val spans_since : t -> int -> Span.t list
  (** [spans_since t n] is the spans recorded after the first [n] —
      pair with {!span_count} to scope a measurement window.  On a
      capped sink, entries already evicted from the ring are absent. *)

  val events_since : t -> int -> Event.t list
  val clear : t -> unit
end

(** {1 Online protocol-invariant monitor} *)

module Monitor : sig
  (** A pure observer over the event stream that continuously checks
      the ordering invariants PERSEAS's recoverability rests on.  Feed
      it by wiring {!sink} into a {!Sink.tee} next to the recording
      ring — it reads the same instants the ring records, keeps a tiny
      per-node state machine, and raises a typed {!alert} the moment an
      SCI piece contradicts the protocol.

      The checked invariants, per destination node:

      - {b undo before data}: a transaction's undo records must reach a
        mirror before any of its commit data does ({!Undo_after_data});
      - {b fence strictly last}: no piece of a commit unit (an eager
        commit's propagate/segmeta/fence burst, or a group-commit
        convoy) may follow that unit's epoch-fence piece
        ({!Fence_not_last});
      - {b epoch monotonicity}: successive fence epochs on one node
        strictly increase ({!Epoch_regressed});
      - {b convoy integrity}: two commit units never interleave on one
        node ({!Convoy_interleaved});
      - {b checkpoint cut outside convoys}: a checkpoint cut instant
        must not land while any commit unit is open
        ({!Checkpoint_split_convoy});
      - {b cross-shard commits only in single-master phases}: a
        [cluster]/[cross_commit] instant is legal only while the most
        recent [cluster]/[phase_switch] instant declared the
        [single_master] phase — the STAR rule the sharded router lives
        by ({!Cross_shard_in_partitioned}).  Streams without phase
        instants sit in the default partitioned phase, where any
        cross-shard commit alerts.

      The monitor relies on the causal tags ([op], [node], [convoy],
      [txn]/[batch], [epoch], [tag]) that {!Perseas} threads through the
      NIC's piece instants; untagged traffic is ignored.  Like every
      trace-layer component it never advances the clock or touches the
      packet stream. *)

  type violation =
    | Undo_after_data of { txn : string; node : int; at : Time.t }
    | Fence_not_last of { node : int; convoy : string; at : Time.t }
    | Epoch_regressed of { node : int; prev : int64; next : int64; at : Time.t }
    | Convoy_interleaved of { node : int; convoy : string; intruder : string; at : Time.t }
    | Checkpoint_split_convoy of { node : int; convoy : string; at : Time.t }
    | Cross_shard_in_partitioned of { xid : string; at : Time.t }

  type alert = { violation : violation; event : Event.t }
  (** The violation plus the exact instant that triggered it. *)

  type t

  val create : ?on_alert:(alert -> unit) -> unit -> t
  (** [on_alert] fires synchronously on every violation — the flight
      recorder hooks its dump trigger here. *)

  val sink : t -> Sink.t
  (** An {!Sink.observer} feeding this monitor; combine with
      {!Sink.tee} to watch a stream that is also being recorded. *)

  val event : t -> Event.t -> unit
  (** Feed one instant by hand.  This is the seeding hook the mutation
      tests use to replay deliberately corrupted streams. *)

  val span : t -> Span.t -> unit
  (** Feed one span.  A [recovery]-category span resets per-transaction
      and per-unit state (a fresh engine restarts transaction ids);
      fence-epoch floors survive recovery on purpose. *)

  val alerts : t -> alert list
  (** Oldest first. *)

  val alert_count : t -> int
  val events_seen : t -> int

  val describe : violation -> string
  val pp_alert : Format.formatter -> alert -> unit
end

(** {1 Causal cross-node timelines} *)

module Causal : sig
  (** Stitches the per-node span/event streams back into one
      per-transaction story: primary-side phases, then each mirror's
      undo/data/fence arrivals, then checkpoint traffic — ordered by
      virtual time.  Transactions are identified by the [txn] arg (or
      membership in a convoy's [+]-separated [batch] arg), read as
      {!Monitor} reads them; each SCI piece is one hop carrying its
      packet count, so a 64-packet data run reads as one line. *)

  type hop = {
    h_start : Time.t;
    h_stop : Time.t;
    h_node : int option;  (** [None]: on the primary itself. *)
    h_what : string;  (** ["txn/commit"], ["pkt/flush_convoy"], ... *)
    h_detail : string;  (** Selected args, rendered [k=v]. *)
    h_pkts : int;  (** The piece's packets; 0 for spans. *)
  }

  type timeline = { c_txn : string; c_hops : hop list (* oldest first *) }

  val build : spans:Span.t list -> events:Event.t list -> timeline list
  (** Timelines in first-appearance order. *)

  val find : timeline list -> txn:string -> timeline option
  val render : timeline -> string
  val render_all : timeline list -> string
end

(** {1 Gauges and time series}

    Counters only go up; gauges hold the {e current} level of something
    — buffer occupancy, live-mirror count, spare-pool depth — and a
    {!Timeseries} snapshots every gauge at virtual-clock instants
    chosen by a sampler ({!Sim.Events.every} in practice).  Like sinks,
    the layer is a pure observer: a disabled timeseries hands out a
    shared dummy gauge so every [set]/[add] is a single branch, and
    sampling reads the clock without ever advancing it. *)

module Gauge : sig
  type t

  val name : t -> string
  val value : t -> int

  val hwm : t -> int
  (** High-water mark: the largest value ever [set]/[add]-ed, which
      captures between-samples peaks the sampler never sees. *)

  val set : t -> int -> unit
  val add : t -> int -> unit
end

module Timeseries : sig
  type t

  type sample = { at : Time.t; values : (string * int) list }
  (** One snapshot: every gauge's value at virtual time [at], sorted by
      gauge name. *)

  val noop : t
  (** Disabled: gauges are dummies, probes are dropped, sampling is a
      no-op.  The default wired into every component. *)

  val create : unit -> t
  val enabled : t -> bool

  val gauge : t -> string -> Gauge.t
  (** Find-or-create by name; the shared inert dummy on {!noop}. *)

  val set : t -> string -> int -> unit
  val add : t -> string -> int -> unit
  val value : t -> string -> int
  val hwm : t -> string -> int

  val names : t -> string list
  (** Registered gauge names, sorted. *)

  val on_sample : t -> (Time.t -> unit) -> unit
  (** Register a probe run at the start of every {!sample}, receiving
      the sample's virtual time.  Probes run in registration order —
      components register value-refreshing probes first, {!rate}
      probes last. *)

  val rate : t -> name:string -> source:string -> unit
  (** Derivative gauge: at each sample, [name] holds the per-second
      rate of change of gauge [source] since the previous sample (0 on
      the first).  Registers an {!on_sample} probe, so call it after
      the probes that refresh [source]. *)

  val sample : t -> at:Time.t -> unit
  (** Run the probes, then record every gauge's value at [at]. *)

  val samples : t -> sample list
  (** Oldest first. *)

  val sample_count : t -> int

  val to_json : t -> string
  (** Snapshot as [{"gauges":{"name":{"value":v,"hwm":h},...}}],
      names escaped and sorted. *)
end

(** {1 Per-phase breakdown} *)

type phase_stat = { phase : string; count : int; total_us : float; mean_us : float }
(** [mean_us] is per span occurrence, not per transaction. *)

val breakdown : ?cat:string -> Span.t list -> phase_stat list
(** Aggregate spans by name, restricted to category [cat] when given;
    descending by [total_us]. *)

(** {1 Tail attribution} *)

module Tail : sig
  (** Cheap always-on tail attribution: a log2 sub-bucketed
      {!Stats.Histogram} per [txn]-category phase (and per
      (phase, mirror) pair), one for end-to-end latency, and a worst-K
      exemplar reservoir with threshold admission that retains the full
      span/event window — hence the {!Causal} cross-node timeline — of
      the slowest transactions seen.  A pure observer: it never reads
      or advances the clock, and with the engine sink at [noop] it
      costs nothing at all. *)

  type exemplar = {
    e_seq : int;  (** Measured-iteration index (0-based). *)
    e_latency_us : float;
    e_spans : Span.t list;
    e_events : Event.t list;
  }

  type t

  val create : ?k:int -> ?sub_buckets:int -> unit -> t
  (** [k] exemplars retained (default 8); [sub_buckets] per octave for
      every histogram (default 16, i.e. percentile tolerance 3.125%). *)

  val sink : t -> Sink.t
  (** An {!Sink.observer} feeding the per-phase histograms from a live
      span stream — one sample per span, no exemplars: a stream has no
      transaction window to aggregate or retain.  Tee next to the
      recording ring; do not combine with {!observe} on the same stream
      or phases double-count. *)

  val observe : t -> latency_us:float -> spans:Span.t list -> events:Event.t list -> unit
  (** Feed one measured transaction: latency into the end-to-end
      histogram, [spans] — aggregated to the transaction's {e total}
      time per phase, so per-phase p99s stack up against the end-to-end
      p99 — into the per-phase histograms, and — when [latency_us]
      beats {!threshold_us} — the whole window into the reservoir,
      evicting the fastest exemplar. *)

  val count : t -> int
  (** Transactions fed through {!observe}. *)

  val latency : t -> Stats.Histogram.t
  val phases : t -> (string * Stats.Histogram.t) list
  (** First-seen order. *)

  val phase_hist : t -> string -> Stats.Histogram.t option
  val mirror_phases : t -> ((string * int) * Stats.Histogram.t) list
  (** Per (phase, mirror) histograms, sorted. *)

  val phase_p99s : t -> (string * float) list
  (** p99 per non-empty phase, first-seen order. *)

  val threshold_us : t -> float
  (** Current admission bar: the fastest retained exemplar's latency
      once the reservoir is full, 0 before. *)

  val exemplars : t -> exemplar list
  (** Slowest first; at most [k]. *)

  val timelines : exemplar -> Causal.timeline list
  (** The exemplar's window stitched into cross-node timelines. *)

  val exemplar_txn : exemplar -> string option
  (** The transaction id named by the window's spans, if any. *)
end

(** {1 Exporters} *)

module Export : sig
  val chrome_json :
    ?series:Timeseries.sample list ->
    ?flows:(string * Causal.timeline) list ->
    spans:Span.t list -> events:Event.t list -> unit -> string
  (** Chrome [trace_event] JSON (one [{"traceEvents": [...]}] object):
      spans as complete ([ph:"X"]) events, instants as [ph:"i"], with
      microsecond timestamps.  Loads directly in Perfetto
      ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and
      [chrome://tracing].  Spans carrying a [mirror] arg are placed on
      a per-mirror track (tid = mirror + 2) so the per-mirror undo and
      propagation phases line up visually.  [series] samples are
      emitted as [ph:"C"] counter events — Perfetto draws one counter
      track per gauge name.  [flows] are named {!Causal} timelines
      (worst-K exemplars, typically) emitted as flow events
      ([ph:"s"/"t"/"f"]) stepping through their hops, so each outlier
      reads as one arrow chain across the tracks. *)

  val chrome_json_to_file :
    ?series:Timeseries.sample list ->
    ?flows:(string * Causal.timeline) list ->
    path:string -> spans:Span.t list -> events:Event.t list -> unit -> unit
  (** Creates parent directories as needed. *)

  val phase_csv_header : string list
  (** [phase; count; total_us; mean_us; share] *)

  val phase_csv_rows : phase_stat list -> string list list
  (** [share] is each phase's fraction of the summed total. *)

  val timeseries_csv_header : string list -> string list
  (** ["t (us)"] followed by the given gauge names. *)

  val timeseries_csv_rows : names:string list -> Timeseries.sample list -> string list list
  (** One row per sample, columns in [names] order (0 when a gauge did
      not exist yet at that sample). *)
end
