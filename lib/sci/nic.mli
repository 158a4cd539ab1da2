open Sim

(** A PCI-SCI adapter instance: performs remote transfers between
    memory images, charging virtual time to a clock and keeping traffic
    counters.

    Transfers are exposed as {e plans}: one burst made of contiguous
    copies, whose packet counts are known in closed form before
    anything moves.  A plan's remote side is written relative to the
    {e windows} (remote segments) its copies packetise in, and it is
    bound to a {!dest} — the remote image, the base of each window and
    the ring distance — only when it runs.  Exports are buffer-aligned
    and every mirror's copy of a segment has the same size, so
    widening, packetisation and packet counts are the same at every
    destination: one plan serves every mirror, and only the addresses
    and the hop term of its latency differ.  Applying a plan is one
    memory copy per piece and one clock advance, whether or not a trace
    sink observes it.  Only a caller that must interrupt a copy between
    two packets (PERSEAS' crash sweeps) gets the same plan walked packet
    by packet — the paper's recovery logic exists precisely because a
    crash can strike after some but not all packets of a remote copy
    have landed. *)

type t

type counters = {
  bursts : int;
  packets64 : int;
  packets16 : int;
  bytes_written : int;
  bytes_read : int;
}

val create : ?params:Params.t -> Clock.t -> t
val params : t -> Params.t
val clock : t -> Clock.t
val counters : t -> counters
val reset_counters : t -> unit

val set_sink : t -> Trace.Sink.t -> unit
(** Attach a trace sink: every plan applied while it is enabled emits
    one instant per piece ([piece], category [sci]), stamped when the
    piece's last packet landed, with its traffic [tag], its [full64] and
    [part16] packet counts, how many of those 64-byte packets were
    [streamed] (overlapped behind the first of the burst, §4), its
    [bytes] and its [dir] ([write] / [read]).  A piece cut by a
    [before] hook counts only the packets that landed.  The sink is a
    pure observer — it never advances the clock or changes the packet
    stream — so runs with and without it are byte-identical in
    counters and final virtual time.  Defaults to {!Trace.Sink.noop}. *)

val sink : t -> Trace.Sink.t

val set_ctx : t -> (string * string) list -> unit
(** Set the causal-context tags appended to every piece instant until
    the next [set_ctx] (clear with [[]]).  PERSEAS brackets each plan
    run with the operation / transaction / convoy / destination-node
    identity so the piece stream carries enough to reconstruct
    cross-node timelines ({!Trace.Causal}) and to check protocol
    ordering online ({!Trace.Monitor}).  Trace metadata only: the
    transfer machinery never reads it, so runs with and without context
    stay byte-identical. *)

val ctx : t -> (string * string) list

val set_telemetry : t -> Trace.Timeseries.t -> unit
(** Attach a gauge timeseries.  The NIC then maintains, with the same
    pure-observer contract as the sink:

    - [nic.bytes.<tag>] — cumulative payload bytes per traffic class
      ([bulk], [data], ...), updated as the bytes land;
    - [netram.rpc_ops] — control round trips, bumped via {!note_rpc};
    - a sample-time probe mirroring the cumulative counters into
      gauges: [nic.bursts], [nic.pkts], [nic.pkts64], [nic.pkts16],
      [nic.streamed_pkts], [nic.bytes_written], [nic.bytes_read],
      [nic.bytes].

    Defaults to {!Trace.Timeseries.noop}, under which every gauge
    update is a single branch. *)

val telemetry : t -> Trace.Timeseries.t

val note_rpc : t -> unit
(** Record one control round trip ({!Netram.Client} calls this from
    its rpc charge).  No-op when telemetry is disabled. *)

(** {1 Transfer plans} *)

type plan

type dest
(** Where a plan lands: a remote image, the base address of each of its
    windows (by index), and the ring distance. *)

val dest : t -> image:Mem.Image.t -> bases:int array -> lens:int array -> hops:int -> dest
(** Window [i] of the destination is the [lens.(i)] bytes at
    [bases.(i)] in [image].  Raises [Invalid_argument] when [hops < 1],
    the arrays differ in length, or a base is not a multiple of the
    buffer size (pieces are packetised at their window offsets, which
    matches the wire only on buffer-aligned windows). *)

val plan_write :
  t ->
  ?hops:int ->
  ?tag:string ->
  ?window:Mem.Segment.t ->
  src:Mem.Image.t ->
  src_off:int ->
  dst:Mem.Image.t ->
  dst_off:int ->
  len:int ->
  unit ->
  plan
(** The optimised [sci_memcpy] of §4: copies larger than the 32-byte
    threshold are widened to the enclosing 64-byte-aligned region so the
    card emits whole 64-byte packets; the widening never leaves
    [window] (a segment in destination coordinates — pass the mirrored
    segment so neighbouring bytes of the same segment may be re-copied,
    which is safe because source and destination are mirrors).  Without
    [window], no widening happens (raw store).  [src_off] and [dst_off]
    must be congruent modulo 64 for widening to apply (mirrored
    segments are 64-byte aligned, so they always are).  [hops] is the
    ring distance (default 1).  The plan is bound to [dst] at those
    addresses; {!run} sends it there.  Every plan raises
    [Invalid_argument] when [hops < 1] or [len < 0]. *)

type chunk = {
  ck_tag : string;
  ck_window : Mem.Segment.t option;
      (** Pass the destination segment to enable the {!plan_write}
          widening for this chunk; [None] = raw store. *)
  ck_src : Mem.Image.t;
  ck_src_off : int;
  ck_dst : Mem.Image.t;
  ck_dst_off : int;
  ck_len : int;
}
(** One copy of a write convoy.  Packetised in destination address
    space starting at [ck_dst_off], like {!plan_write}. *)

val plan_convoy : t -> ?hops:int -> chunk list -> plan
(** Several disjoint copies to ONE remote node fused into a single
    burst: per-chunk packetisation, global costing.  Only the convoy's
    first packet pays the base (+ hop) latency, Full64 streaming
    carries across chunk boundaries — back-to-back posted writes keep
    the card's FIFO busy — and the last-word bonus applies only to the
    final chunk.  This is how group commit amortises the per-burst
    startup cost across the batch's transactions.  Zero-length chunks
    are dropped; an all-empty list yields the empty plan.  Every chunk
    must name the same [ck_dst] image ([Invalid_argument] otherwise). *)

val plan_read :
  t ->
  ?hops:int ->
  ?tag:string ->
  src:Mem.Image.t ->
  src_off:int ->
  dst:Mem.Image.t ->
  dst_off:int ->
  len:int ->
  unit ->
  plan
(** A remote-to-local copy (recovery path), bound to [src].  Never
    widened.

    [tag] (both directions, default ["data"]) names the traffic class
    the caller is moving — {!Netram.Client} uses ["bulk"] for data
    movement vs its ["rpc"] control events — and is carried on every
    piece event the plan emits. *)

(** {2 Plans bound when they run} *)

type piece
(** One write copy of a plan that has no destination yet. *)

val piece :
  t ->
  tag:string ->
  widen:bool ->
  win:int ->
  win_len:int ->
  off:int ->
  src:Mem.Image.t ->
  src_off:int ->
  len:int ->
  piece
(** [len] bytes of [src] at [src_off] to offset [off] of window [win], a
    window of [win_len] bytes; with [widen], the {!plan_write} widening
    within the window.  Raises [Invalid_argument] unless
    [\[off, off+len)] lies in the window. *)

val plan_pieces : t -> piece list -> plan
(** The write burst of [pieces], costed like {!plan_convoy}, with no
    destination: {!run_to} binds it, so one plan runs on every
    destination whose windows have the lengths it was built for.
    Zero-length pieces are dropped. *)

val plan_packets : plan -> int
(** Packets the plan puts on the wire when fully applied. *)

val plan_latency : plan -> Time.t
(** Total virtual time the plan charges when fully applied at the
    destination it was built for.  Raises [Invalid_argument] for a plan
    built by {!plan_pieces}. *)

val plan_bytes : plan -> int
(** Bytes the plan moves (may exceed the requested [len] when the copy
    was widened to 64-byte alignment). *)

val run_to : ?before:(unit -> unit) -> ?clock:Clock.t -> t -> dest -> plan -> unit
(** Move the plan's bytes to (or, for a read, from) [dest], charge its
    latency at [dest]'s hop count — the closed form of its packet
    counts — count its packets and count it as one burst (a plan with
    no packets is no burst).  Raises [Invalid_argument], before anything
    moves, when a piece ends past its window's length at [dest].  The
    latency goes to [clock] (default: the NIC's own), so a caller
    modelling transfers that run side by side can give each stream a
    clock of its own and settle the slowest.
    With [before], the plan is walked packet by packet: [before ()]
    runs ahead of every packet and may raise to cut the copy there,
    leaving exactly the earlier packets landed, charged and counted.
    Otherwise each piece is one copy and the clock advances once.  Both
    ways end with the same bytes, clock and counters, and emit the same
    piece instants (see {!set_sink}).  This is the one run path: {!run}
    calls it, and {!run_all} makes the same copies and charges. *)

val run : ?before:(unit -> unit) -> ?clock:Clock.t -> t -> plan -> unit
(** {!run_to} the destination the plan was built for.  Raises
    [Invalid_argument] for a plan built by {!plan_pieces}. *)

val run_all : ?before:(unit -> unit) -> t -> (Clock.t * plan) list -> unit
(** {!run} each plan on its clock, in order.  Without [before] every
    copy is made before any latency is charged, packet counted or piece
    observed, which ends with the same bytes, clocks, counters and
    piece instants and lets the host overlap the copies' cache
    misses.  Raises [Invalid_argument] for a plan built by
    {!plan_pieces}. *)

(** {1 Convenience wrappers} *)

val write :
  t ->
  ?hops:int ->
  ?tag:string ->
  ?window:Mem.Segment.t ->
  src:Mem.Image.t ->
  src_off:int ->
  dst:Mem.Image.t ->
  dst_off:int ->
  len:int ->
  unit ->
  unit
(** [run] of [plan_write]. *)

val read :
  t ->
  ?hops:int ->
  ?tag:string ->
  src:Mem.Image.t ->
  src_off:int ->
  dst:Mem.Image.t ->
  dst_off:int ->
  len:int ->
  unit ->
  unit

val write_u64 : t -> ?hops:int -> ?tag:string -> dst:Mem.Image.t -> dst_off:int -> int64 -> unit
(** An 8-byte remote store (one 16-byte packet — atomic on the wire);
    PERSEAS uses it for the commit-point epoch write. *)

val read_u64 : t -> ?hops:int -> ?tag:string -> src:Mem.Image.t -> src_off:int -> unit -> int64
