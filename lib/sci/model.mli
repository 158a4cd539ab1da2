open Sim

(** End-to-end latency of SCI bursts (the Figure 5 model).

    A burst is one logical store or read, packetised by {!Packet}.
    Within a burst, the first packet pays the fixed overhead (plus
    [t_hop] per ring hop beyond the first), the first 64-byte packet
    pays the full pipeline cost and later 64-byte packets stream behind
    it; 16-byte packet trains do not stream.  A write burst ending on a
    buffer's last word flushes early and saves [t_lastword_bonus] on its
    last packet, which never charges less than zero.  {!Nic} charges
    packets with {!charge} and whole bursts with {!burst}, or from a
    plan's {!burst_body} with {!burst_at}, so the two cannot drift
    apart. *)

type dir = Write | Read

val charge :
  Params.t -> hops:int -> dir -> first:bool -> bonus:bool -> streamed:bool -> Packet.kind -> Time.t
(** One packet's share of a burst: its own cost, the burst overhead if
    it is the [first] packet, minus the last-word bonus if [bonus]
    (the last packet of a burst that earns it), clamped at zero.
    [streamed] is a 64-byte packet after the burst's first. *)

val burst :
  Params.t -> hops:int -> dir -> full64:int -> part16:int -> last:Packet.kind -> bonus:bool -> Time.t
(** The sum of {!charge} over a burst of [full64 + part16] packets whose
    last packet has kind [last], in O(1).  The empty burst costs zero.
    Raises [Invalid_argument] when [hops < 1].  It is {!burst_at} of
    {!burst_body}. *)

val burst_body :
  Params.t -> dir -> full64:int -> part16:int -> last:Packet.kind -> bonus:bool -> Time.t
(** The part of {!burst} that does not depend on the ring distance:
    every packet's charge but the first packet's overhead, with a
    one-packet burst's charge not yet clamped at zero (it may be
    negative).  A plan computes it once and prices every destination
    from it with {!burst_at}. *)

val burst_at : Params.t -> hops:int -> dir -> packets:int -> Time.t -> Time.t
(** [burst_at p ~hops dir ~packets body] is the latency of a burst of
    [packets] packets whose {!burst_body} is [body], at [hops]: the
    first packet's overhead added, and a one-packet burst clamped at
    zero.  Raises [Invalid_argument] when [hops < 1]. *)

val write_range : Params.t -> ?hops:int -> off:int -> len:int -> unit -> Time.t
(** One-way latency until the last byte of a store of the range has
    landed in the remote memory.  [hops] is the ring distance
    (default 1). *)

val read_range : Params.t -> ?hops:int -> off:int -> len:int -> unit -> Time.t
(** Latency of a remote read of the range (request/response; used by
    recovery's remote-to-local copies). *)

val local_copy : Params.t -> int -> Time.t
(** CPU cost of a local memcpy of [n] bytes. *)
