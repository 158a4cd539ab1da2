(** SCI packetisation of a store burst.

    A store to the range [\[off, off+len)] of remote physical memory is
    chopped along 64-byte buffer boundaries.  A buffer whose 64 bytes
    are all covered flushes as one [Full64] packet; a partially covered
    buffer flushes as one [Part16] packet per touched 16-byte sub-block
    (so a 4-byte store crossing a 16-byte boundary needs two packets,
    matching §4).  Only the first and last buffer of a range can be
    partial, so packet counts have a closed form. *)

type kind = Full64 | Part16

type t = { addr : int; len : int; kind : kind }
(** One SCI packet: it carries the remote-memory bytes
    [\[addr, addr+len)].  For [Full64], [len] is the buffer size; for
    [Part16], [len <= 16] (a sub-block clipped to the stored range). *)

val iter : Params.t -> off:int -> len:int -> (int -> int -> kind -> unit) -> unit
(** The packetiser: [iter p ~off ~len f] calls [f addr len kind] once
    per packet of [\[off, off+len)], in address order, allocating
    nothing per packet.  Raises [Invalid_argument] on negative [off] or
    [len]. *)

val counts : Params.t -> off:int -> len:int -> int * int
(** [(full64, part16)]: how many packets of each kind {!iter} emits,
    in O(1). *)

val last : Params.t -> off:int -> len:int -> kind
(** The kind of the final packet of a non-empty range. *)

val of_range : Params.t -> off:int -> len:int -> t list
(** {!iter}'s packets as a list.  [len = 0] yields [\[\]]. *)

val total_bytes : t list -> int
(** Sum of payload lengths; [of_range] conserves the range length. *)

val count : kind -> t list -> int

val ends_on_last_word : Params.t -> off:int -> len:int -> bool
(** Whether the store's final byte is in the last word (last 4 bytes)
    of an SCI buffer — such stores flush faster (§4). *)

val buffer_index : Params.t -> int -> int
(** [buffer_index p addr] is the card buffer the address maps to:
    bits 6..8 of the physical address (for the default geometry). *)

val pp : Format.formatter -> t -> unit
