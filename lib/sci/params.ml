open Sim

type t = {
  buffer_bytes : int;
  write_buffers : int;
  subblock_bytes : int;
  t_base : Time.t;
  t_pkt16 : Time.t;
  t_pkt64_first : Time.t;
  t_pkt64_stream : Time.t;
  t_lastword_bonus : Time.t;
  t_read_base : Time.t;
  t_read_pkt64_first : Time.t;
  t_read_pkt64_stream : Time.t;
  t_hop : Time.t;
  local_copy_overhead : Time.t;
  local_copy_bytes_per_s : float;
}

(* Calibration (see the module interface):
   - 4-byte store = t_base + t_pkt16 = 0.9 + 1.8 = 2.7 us (paper, section 4);
   - raw 33..48-byte store = 3 sub-block packets = 6.3 us, while the
     enclosing 64-byte aligned region = 5.9 us, so the optimised memcpy
     wins exactly for sizes > 32 bytes (paper, section 4);
   - streamed 64-byte packets at 2.4 us each = 26.7 MB/s sustained, so a
     1 MB transaction (2 MB local + 2 MB remote) ends < 0.1 s (Fig. 6). *)
let default =
  {
    buffer_bytes = 64;
    write_buffers = 8;
    subblock_bytes = 16;
    t_base = Time.us 0.9;
    t_pkt16 = Time.us 1.8;
    t_pkt64_first = Time.us 5.0;
    t_pkt64_stream = Time.us 2.4;
    t_lastword_bonus = Time.us 0.3;
    t_read_base = Time.us 2.0;
    t_read_pkt64_first = Time.us 6.0;
    t_read_pkt64_stream = Time.us 3.2;
    t_hop = Time.us 0.3;
    local_copy_overhead = Time.us 0.15;
    local_copy_bytes_per_s = 100e6;
  }

let projected ?(base = default) ~years () =
  if years < 0 then invalid_arg "Params.projected: negative years";
  let y = float_of_int years in
  let latency = 0.8 ** y (* -20 %/year *) in
  let bandwidth = 1.45 ** y (* +45 %/year *) in
  let memory = 1.3 ** y in
  let scale t f = max 1 (int_of_float (Float.round (float_of_int t *. f))) in
  {
    base with
    t_base = scale base.t_base latency;
    t_pkt16 = scale base.t_pkt16 latency;
    t_pkt64_first = scale base.t_pkt64_first latency;
    t_pkt64_stream = scale base.t_pkt64_stream (1. /. bandwidth);
    t_lastword_bonus = scale base.t_lastword_bonus latency;
    t_read_base = scale base.t_read_base latency;
    t_read_pkt64_first = scale base.t_read_pkt64_first latency;
    t_read_pkt64_stream = scale base.t_read_pkt64_stream (1. /. bandwidth);
    t_hop = scale base.t_hop latency;
    local_copy_overhead = scale base.local_copy_overhead (1. /. memory);
    local_copy_bytes_per_s = base.local_copy_bytes_per_s *. memory;
  }

let memcpy_threshold t = 2 * t.subblock_bytes

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if not (is_power_of_two t.buffer_bytes) then err "buffer_bytes not a power of two"
  else if not (is_power_of_two t.subblock_bytes) then err "subblock_bytes not a power of two"
  else if t.subblock_bytes > t.buffer_bytes then err "subblock larger than buffer"
  else if t.write_buffers <= 0 then err "write_buffers <= 0"
  else if t.t_base < 0 || t.t_pkt16 <= 0 || t.t_pkt64_first <= 0 then err "non-positive packet cost"
  else if t.t_pkt64_stream > t.t_pkt64_first then err "streaming cost above first-packet cost"
  else if
    List.exists (fun c -> c < 0)
      [ t.t_pkt64_stream; t.t_hop; t.t_read_base; t.t_read_pkt64_first; t.t_read_pkt64_stream ]
  then err "negative transfer cost"
  else if t.t_lastword_bonus < 0 then err "negative last-word bonus"
  else if t.local_copy_bytes_per_s <= 0. then err "non-positive local copy bandwidth"
  else Ok ()
