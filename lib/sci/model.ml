open Sim

type dir = Write | Read

(* What a burst's first packet pays on top of its own cost. *)
let overhead (p : Params.t) ~hops dir =
  if hops < 1 then invalid_arg "Model: hops must be >= 1";
  (match dir with Write -> p.t_base | Read -> p.t_read_base) + ((hops - 1) * p.t_hop)

let packet (p : Params.t) dir ~streamed (kind : Packet.kind) =
  match (dir, kind) with
  | Write, Part16 -> p.t_pkt16
  | Write, Full64 -> if streamed then p.t_pkt64_stream else p.t_pkt64_first
  (* A partial sub-block read costs a full request/response, modelled
     at the first-packet read rate scaled to the sub-block. *)
  | Read, Part16 -> 2 * p.t_pkt16
  | Read, Full64 -> if streamed then p.t_read_pkt64_stream else p.t_read_pkt64_first

let charge (p : Params.t) ~hops dir ~first ~bonus ~streamed kind =
  Int.max Time.zero
    (packet p dir ~streamed kind
    + (if first then overhead p ~hops dir else Time.zero)
    - if bonus then p.t_lastword_bonus else Time.zero)

(* Everything a burst's packets charge but the first packet's
   overhead, which alone depends on the ring distance.  Only the last
   packet can clamp, so the others sum in closed form: the first Full64
   pays the pipeline fill, the remaining Full64s stream.  A one-packet
   burst's own charge is left unclamped: the overhead joins it first. *)
let burst_body p dir ~full64 ~part16 ~last ~bonus =
  let n = full64 + part16 in
  if n = 0 then Time.zero
  else
    let last_full = match (last : Packet.kind) with Full64 -> 1 | Part16 -> 0 in
    let f = full64 - last_full in
    let own =
      packet p dir ~streamed:(last_full = 1 && full64 > 1) last
      - if bonus then p.t_lastword_bonus else Time.zero
    in
    (if f > 0 then packet p dir ~streamed:false Full64 + ((f - 1) * packet p dir ~streamed:true Full64)
     else Time.zero)
    + ((n - 1 - f) * packet p dir ~streamed:false Part16)
    + if n = 1 then own else Int.max Time.zero own

let burst_at p ~hops dir ~packets body =
  let extra = overhead p ~hops dir in
  if packets = 0 then Time.zero
  else if packets = 1 then Int.max Time.zero (body + extra)
  else body + extra

let burst p ~hops dir ~full64 ~part16 ~last ~bonus =
  burst_at p ~hops dir ~packets:(full64 + part16) (burst_body p dir ~full64 ~part16 ~last ~bonus)

let range p ?(hops = 1) dir ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Model: negative range";
  let full64, part16 = Packet.counts p ~off ~len in
  burst p ~hops dir ~full64 ~part16 ~last:(Packet.last p ~off ~len)
    ~bonus:(dir = Write && Packet.ends_on_last_word p ~off ~len)

let write_range p ?hops ~off ~len () = range p ?hops Write ~off ~len
let read_range p ?hops ~off ~len () = range p ?hops Read ~off ~len

let local_copy (p : Params.t) n =
  if n < 0 then invalid_arg "Model.local_copy: negative length";
  if n = 0 then Time.zero
  else p.local_copy_overhead + Time.of_bandwidth ~bytes_per_s:p.local_copy_bytes_per_s n
