open Sim

(** Calibration constants of the PCI-SCI cluster adapter model.

    The model reproduces the mechanism described in §4 of the paper: the
    card has sixteen internal 64-byte buffers (eight used for writes);
    physical address bits 0–5 give the offset of a word inside a buffer
    and bits 6–8 select the buffer; stores to contiguous addresses are
    gathered (store gathering) and buffers transmit independently
    (buffer streaming).  Full buffers flush as whole 64-byte SCI
    packets; partially-filled buffers flush as trains of 16-byte
    packets.  Writes that end on the last word of a buffer flush
    slightly faster.

    The default constants are calibrated against the paper's published
    points: a 4-byte remote store costs 2.7 µs one way; raw stores of
    more than 32 bytes are slower than copying the enclosing 64-byte
    aligned region; sustained large copies reach ~25 MB/s so a 1 MB
    transaction (two remote copies) finishes under 0.1 s (Figure 6). *)

type t = {
  buffer_bytes : int;  (** SCI buffer size: 64. *)
  write_buffers : int;  (** Write-side buffers: 8 (of 16 total). *)
  subblock_bytes : int;  (** Partial-buffer packet granule: 16. *)
  t_base : Time.t;  (** Fixed end-to-end overhead per write burst. *)
  t_pkt16 : Time.t;  (** Cost of each 16-byte packet. *)
  t_pkt64_first : Time.t;  (** Cost of the first 64-byte packet of a burst. *)
  t_pkt64_stream : Time.t;
      (** Cost of each subsequent 64-byte packet, overlapped by buffer
          streaming. *)
  t_lastword_bonus : Time.t;
      (** Saved when a burst ends exactly on a buffer's last word. *)
  t_read_base : Time.t;  (** Fixed overhead of a remote read burst. *)
  t_read_pkt64_first : Time.t;
  t_read_pkt64_stream : Time.t;
  t_hop : Time.t;  (** Extra latency per additional ring hop. *)
  local_copy_overhead : Time.t;  (** Fixed CPU cost of a local memcpy call. *)
  local_copy_bytes_per_s : float;  (** Local memcpy bandwidth. *)
}

val default : t
(** The 1998 Dolphin PCI-SCI / 133 MHz Pentium calibration. *)

val memcpy_threshold : t -> int
(** Copies strictly larger than this many bytes are performed as
    64-byte-aligned region copies by the optimised [sci_memcpy]
    (32 in the paper). *)

val projected : ?base:t -> years:int -> unit -> t
(** §6 technology trend: interconnect latency improves ~20 %/year and
    throughput ~45 %/year.  [projected ~years] scales the calibration
    accordingly (latencies x0.8^years, streaming/bandwidth terms by the
    throughput rate; local memory improves ~30 %/year).  [years = 0] is
    {!default}. *)

val validate : t -> (unit, string) result
(** Sanity checks (positive packet costs, no negative cost term,
    power-of-two sizes, streaming cost not above first-packet cost).
    Only the last-word bonus subtracts, so only a burst's last packet
    can charge less than its own cost. *)
