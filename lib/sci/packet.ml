type kind = Full64 | Part16

type t = { addr : int; len : int; kind : kind }

(* Sizes are powers of two ({!Params.validate}), so aligning is
   masking. *)
let down x size = x land lnot (size - 1)
let up x size = down (x + size - 1) size

(* A range splits at two cuts: [head_end] closes the partly covered
   buffer it starts in, [tail_start] opens the partly covered buffer it
   ends in, and whole buffers lie between them.  Either partial piece
   may be empty. *)
let head_end (p : Params.t) ~off ~len = Int.min (off + len) (up off p.buffer_bytes)
let tail_start (p : Params.t) ~off ~len = Int.max (head_end p ~off ~len) (down (off + len) p.buffer_bytes)

(* Bytes of the sub-blocks [lo, hi) touches: one Part16 per sub-block. *)
let touched (p : Params.t) lo hi = if hi <= lo then 0 else up hi p.subblock_bytes - down lo p.subblock_bytes

let counts (p : Params.t) ~off ~len =
  let head = head_end p ~off ~len and tail = tail_start p ~off ~len in
  ((tail - head) / p.buffer_bytes, (touched p off head + touched p tail (off + len)) / p.subblock_bytes)

let last (p : Params.t) ~off ~len =
  if len >= p.buffer_bytes && down (off + len) p.buffer_bytes = off + len then Full64 else Part16

let iter (p : Params.t) ~off ~len f =
  if off < 0 || len < 0 then invalid_arg "Packet: negative range";
  let head = head_end p ~off ~len and tail = tail_start p ~off ~len in
  let partial lo hi =
    let pos = ref lo in
    while !pos < hi do
      let stop = Int.min hi (down !pos p.subblock_bytes + p.subblock_bytes) in
      f !pos (stop - !pos) Part16;
      pos := stop
    done
  in
  partial off head;
  for i = 0 to ((tail - head) / p.buffer_bytes) - 1 do
    f (head + (i * p.buffer_bytes)) p.buffer_bytes Full64
  done;
  partial tail (off + len)

let of_range p ~off ~len =
  let acc = ref [] in
  iter p ~off ~len (fun addr len kind -> acc := { addr; len; kind } :: !acc);
  List.rev !acc

let total_bytes pkts = List.fold_left (fun acc pkt -> acc + pkt.len) 0 pkts
let count kind pkts = List.length (List.filter (fun pkt -> pkt.kind = kind) pkts)

let ends_on_last_word (p : Params.t) ~off ~len =
  len > 0 && off + len - 1 - down (off + len - 1) p.buffer_bytes >= p.buffer_bytes - 4

let buffer_index (p : Params.t) addr = addr / p.buffer_bytes mod p.write_buffers

let pp ppf t =
  Format.fprintf ppf "%s[%#x..%#x)"
    (match t.kind with Full64 -> "full64" | Part16 -> "part16")
    t.addr (t.addr + t.len)
