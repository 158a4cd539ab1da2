open Sim

let p = Sci.Params.default
let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Packetisation *)

let test_packet_small_store () =
  let pkts = Sci.Packet.of_range p ~off:0 ~len:4 in
  check_int "one packet" 1 (List.length pkts);
  check_int "16B kind" 1 (Sci.Packet.count Sci.Packet.Part16 pkts)

let test_packet_crossing_subblock () =
  (* A store crossing a 16-byte boundary needs two packets (paper §4). *)
  let pkts = Sci.Packet.of_range p ~off:12 ~len:8 in
  check_int "two packets" 2 (List.length pkts);
  check_int "conserves bytes" 8 (Sci.Packet.total_bytes pkts)

let test_packet_full_buffer () =
  let pkts = Sci.Packet.of_range p ~off:0 ~len:64 in
  check_int "one full64" 1 (Sci.Packet.count Sci.Packet.Full64 pkts);
  check_int "no part16" 0 (Sci.Packet.count Sci.Packet.Part16 pkts)

let test_packet_mixed () =
  (* 200 bytes from offset 0: 3 full buffers + one 8-byte tail. *)
  let pkts = Sci.Packet.of_range p ~off:0 ~len:200 in
  check_int "full64" 3 (Sci.Packet.count Sci.Packet.Full64 pkts);
  check_int "part16" 1 (Sci.Packet.count Sci.Packet.Part16 pkts);
  check_int "bytes" 200 (Sci.Packet.total_bytes pkts)

let test_packet_unaligned_both_sides () =
  (* [60, 132): 4 bytes in buffer 0, full buffer 1, 4 bytes in buffer 2. *)
  let pkts = Sci.Packet.of_range p ~off:60 ~len:72 in
  check_int "full64" 1 (Sci.Packet.count Sci.Packet.Full64 pkts);
  check_int "part16" 2 (Sci.Packet.count Sci.Packet.Part16 pkts);
  check_int "bytes" 72 (Sci.Packet.total_bytes pkts)

let test_packet_empty_and_invalid () =
  check_int "empty" 0 (List.length (Sci.Packet.of_range p ~off:0 ~len:0));
  (try
     ignore (Sci.Packet.of_range p ~off:(-4) ~len:8);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_last_word () =
  check_bool "ends at 64" true (Sci.Packet.ends_on_last_word p ~off:0 ~len:64);
  check_bool "ends at 62" true (Sci.Packet.ends_on_last_word p ~off:0 ~len:62);
  check_bool "ends at 56" false (Sci.Packet.ends_on_last_word p ~off:0 ~len:56)

let test_buffer_index () =
  check_int "addr 0 -> buf 0" 0 (Sci.Packet.buffer_index p 0);
  check_int "addr 64 -> buf 1" 1 (Sci.Packet.buffer_index p 64);
  check_int "addr 512 wraps" 0 (Sci.Packet.buffer_index p 512)

let prop_packets_conserve_bytes =
  QCheck.Test.make ~name:"packetisation conserves bytes and stays in range" ~count:500
    QCheck.(pair (int_bound 1000) (int_range 1 2048))
    (fun (off, len) ->
      let pkts = Sci.Packet.of_range p ~off ~len in
      Sci.Packet.total_bytes pkts = len
      && List.for_all (fun (pkt : Sci.Packet.t) -> pkt.addr >= off && pkt.addr + pkt.len <= off + len) pkts
      && List.for_all
           (fun (pkt : Sci.Packet.t) ->
             match pkt.kind with
             | Sci.Packet.Full64 -> pkt.len = 64 && pkt.addr mod 64 = 0
             | Sci.Packet.Part16 -> pkt.len >= 1 && pkt.len <= 16)
           pkts)

let prop_packets_sorted_disjoint =
  QCheck.Test.make ~name:"packets are address-ordered and disjoint" ~count:500
    QCheck.(pair (int_bound 1000) (int_range 1 2048))
    (fun (off, len) ->
      let pkts = Sci.Packet.of_range p ~off ~len in
      let rec ordered = function
        | (a : Sci.Packet.t) :: (b : Sci.Packet.t) :: rest -> a.addr + a.len = b.addr && ordered (b :: rest)
        | _ -> true
      in
      ordered pkts)

(* ------------------------------------------------------------------ *)
(* Latency model *)

let us x = Time.us x

let test_latency_calibration_points () =
  check_int "4B store = 2.7us" (us 2.7) (Sci.Model.write_range p ~off:0 ~len:4 ());
  (* one vs two sub-block packets *)
  check_int "8B crossing = 4.5us" (us 4.5) (Sci.Model.write_range p ~off:12 ~len:8 ());
  (* A whole buffer ends on its last word, so the early-flush bonus
     applies: 0.9 + 5.0 - 0.3. *)
  check_int "full 64B = 5.6us" (us 5.6) (Sci.Model.write_range p ~off:0 ~len:64 ())

let test_latency_aligned_wins_above_32 () =
  (* Raw 33..64-byte stores are slower than one whole 64-byte buffer. *)
  let full = Sci.Model.write_range p ~off:0 ~len:64 () in
  for len = 33 to 63 do
    if not (Sci.Packet.ends_on_last_word p ~off:0 ~len) then
      check_bool
        (Printf.sprintf "64B region beats raw %dB" len)
        true
        (Sci.Model.write_range p ~off:0 ~len () >= full)
  done;
  (* ...but a 32-byte store is cheaper raw (the paper's threshold). *)
  check_bool "32B raw beats 64B region" true (Sci.Model.write_range p ~off:0 ~len:32 () < full)

let test_latency_monotone_in_buffers () =
  let lat n = Sci.Model.write_range p ~off:0 ~len:(n * 64) () in
  for n = 1 to 16 do
    check_bool "monotone" true (lat (n + 1) > lat n)
  done

let test_latency_streaming_amortises () =
  (* Per-buffer marginal cost for a long copy is the streaming cost,
     lower than the first-packet cost. *)
  let l1 = Sci.Model.write_range p ~off:0 ~len:(64 * 100) () in
  let l2 = Sci.Model.write_range p ~off:0 ~len:(64 * 101) () in
  check_int "marginal 64B = streaming cost" p.t_pkt64_stream (l2 - l1)

let test_latency_1mb_under_100ms () =
  (* Figure 6: a 1 MB transaction does ~2 remote MB + 1 local MB and
     must end under 0.1 s. *)
  let remote = Sci.Model.write_range p ~off:0 ~len:(1 lsl 20) () in
  let local = Sci.Model.local_copy p (1 lsl 20) in
  check_bool "2 remote + 1 local < 100ms" true ((2 * remote) + local < Time.ms 100.)

let test_latency_hops () =
  let one = Sci.Model.write_range p ~hops:1 ~off:0 ~len:4 () in
  let two = Sci.Model.write_range p ~hops:2 ~off:0 ~len:4 () in
  check_int "one extra hop" p.t_hop (two - one)

let test_read_more_expensive_than_write () =
  List.iter
    (fun len ->
      check_bool
        (Printf.sprintf "read %dB >= write" len)
        true
        (Sci.Model.read_range p ~off:0 ~len () >= Sci.Model.write_range p ~off:0 ~len ()))
    [ 4; 64; 256; 4096 ]

let test_local_copy_costs () =
  check_int "zero bytes free" 0 (Sci.Model.local_copy p 0);
  let one = Sci.Model.local_copy p 1 in
  check_bool "overhead dominates 1B" true (one >= p.local_copy_overhead);
  let big = Sci.Model.local_copy p 100_000_000 in
  check_bool "about 1s for 100MB at 100MB/s" true (Time.to_s big > 0.9 && Time.to_s big < 1.1)

let prop_latency_positive_monotone_same_shape =
  QCheck.Test.make ~name:"write latency positive and grows with whole buffers" ~count:300
    QCheck.(int_range 1 100)
    (fun n ->
      let lat = Sci.Model.write_range p ~off:0 ~len:(n * 64) () in
      lat > 0 && lat = p.t_base + p.t_pkt64_first + ((n - 1) * p.t_pkt64_stream) - p.t_lastword_bonus)

let test_projection_trend () =
  (* section 6: latencies shrink, throughput terms shrink faster. *)
  let p0 = Sci.Params.projected ~years:0 () in
  let p4 = Sci.Params.projected ~years:4 () in
  check_int "year 0 is the default" Sci.Params.default.t_base p0.t_base;
  check_bool "latency improves" true (p4.t_base < p0.t_base && p4.t_pkt16 < p0.t_pkt16);
  check_bool "throughput improves faster" true
    (float_of_int p4.t_pkt64_stream /. float_of_int p0.t_pkt64_stream
    < float_of_int p4.t_base /. float_of_int p0.t_base);
  check_bool "still valid" true (Sci.Params.validate p4 = Ok ());
  (* Transactions get monotonically cheaper with the years. *)
  let cost y =
    let p = Sci.Params.projected ~years:y () in
    Sci.Model.write_range p ~off:0 ~len:256 ()
  in
  check_bool "monotone improvement" true (cost 2 < cost 0 && cost 6 < cost 2)

(* ------------------------------------------------------------------ *)
(* Nic transfers *)

let fresh_pair () =
  let clock = Clock.create () in
  let nic = Sci.Nic.create clock in
  let src = Mem.Image.create ~size:4096 and dst = Mem.Image.create ~size:4096 in
  (clock, nic, src, dst)

let test_nic_write_copies_and_charges () =
  let clock, nic, src, dst = fresh_pair () in
  Mem.Image.write_bytes src ~off:100 (Bytes.of_string "abcdefgh");
  Sci.Nic.write nic ~src ~src_off:100 ~dst ~dst_off:200 ~len:8 ();
  check Alcotest.string "bytes landed" "abcdefgh" (Bytes.to_string (Mem.Image.read_bytes dst ~off:200 ~len:8));
  check_bool "time charged" true (Clock.now clock > 0)

let test_nic_plan_latency_matches_model () =
  let _, nic, src, dst = fresh_pair () in
  List.iter
    (fun (off, len) ->
      let plan = Sci.Nic.plan_write nic ~src ~src_off:off ~dst ~dst_off:off ~len () in
      check_int
        (Printf.sprintf "plan latency = model (off=%d len=%d)" off len)
        (Sci.Model.write_range p ~off ~len ())
        (Sci.Nic.plan_latency plan))
    [ (0, 4); (12, 8); (0, 64); (0, 200); (60, 72); (0, 4096) ]

let test_nic_widening () =
  let _, nic, src, dst = fresh_pair () in
  let window = Mem.Segment.v ~base:0 ~len:4096 in
  (* A 40-byte copy at offset 10 widens to the whole [0,64) buffer. *)
  let plan = Sci.Nic.plan_write nic ~window ~src ~src_off:10 ~dst ~dst_off:10 ~len:40 () in
  check_int "widened to 64" 64 (Sci.Nic.plan_bytes plan);
  (* The widening never leaves the window. *)
  let tight = Mem.Segment.v ~base:10 ~len:40 in
  let plan2 = Sci.Nic.plan_write nic ~window:tight ~src ~src_off:10 ~dst ~dst_off:10 ~len:40 () in
  check_int "clamped" 40 (Sci.Nic.plan_bytes plan2)

let test_nic_widening_respects_mirror_equality () =
  let _, nic, src, dst = fresh_pair () in
  (* Mirrors agree outside the written range, so widening must not
     corrupt the destination: make the images equal first. *)
  for i = 0 to 4095 do
    Mem.Image.write_u8 src i (i land 0xff);
    Mem.Image.write_u8 dst i (i land 0xff)
  done;
  Mem.Image.write_bytes src ~off:70 (Bytes.make 40 '!');
  let window = Mem.Segment.v ~base:0 ~len:4096 in
  Sci.Nic.write nic ~window ~src ~src_off:70 ~dst ~dst_off:70 ~len:40 ();
  check_bool "images equal" true (Mem.Image.equal_range src dst ~off:0 ~len:4096)

let test_nic_no_widening_when_misaligned () =
  let _, nic, src, dst = fresh_pair () in
  let window = Mem.Segment.v ~base:0 ~len:4096 in
  (* src/dst offsets not congruent mod 64: widening must be skipped. *)
  let plan = Sci.Nic.plan_write nic ~window ~src ~src_off:3 ~dst ~dst_off:10 ~len:40 () in
  check_int "no widening" 40 (Sci.Nic.plan_bytes plan)

let test_nic_counters () =
  let _, nic, src, dst = fresh_pair () in
  Sci.Nic.write nic ~src ~src_off:0 ~dst ~dst_off:0 ~len:200 ();
  let c = Sci.Nic.counters nic in
  check_int "bursts" 1 c.bursts;
  check_int "packets64" 3 c.packets64;
  check_int "packets16" 1 c.packets16;
  check_int "bytes" 200 c.bytes_written;
  Sci.Nic.reset_counters nic;
  check_int "reset" 0 (Sci.Nic.counters nic).bytes_written

exception Cut

let test_nic_step_by_step_partial () =
  let _, nic, src, dst = fresh_pair () in
  Mem.Image.fill src ~off:0 ~len:200 'x';
  let plan = Sci.Nic.plan_write nic ~src ~src_off:0 ~dst ~dst_off:0 ~len:200 () in
  check_int "4 packets" 4 (Sci.Nic.plan_packets plan);
  (* Cut before the third packet: exactly 128 bytes must have landed. *)
  let sent = ref 0 in
  (try Sci.Nic.run nic plan ~before:(fun () -> if !sent = 2 then raise Cut else incr sent)
   with Cut -> ());
  check Alcotest.string "first 128 landed" (String.make 128 'x')
    (Bytes.to_string (Mem.Image.read_bytes dst ~off:0 ~len:128));
  check_int "tail untouched" 0 (Mem.Image.read_u8 dst 128);
  check_int "two packets counted" 2 (Sci.Nic.counters nic).packets64

let test_nic_rejects_zero_hops () =
  let _, nic, src, dst = fresh_pair () in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "model write" (fun () -> Sci.Model.write_range p ~hops:0 ~off:0 ~len:4 ());
  raises "model read" (fun () -> Sci.Model.read_range p ~hops:0 ~off:0 ~len:4 ());
  raises "nic write" (fun () -> Sci.Nic.plan_write nic ~hops:0 ~src ~src_off:0 ~dst ~dst_off:0 ~len:4 ());
  raises "nic read" (fun () -> Sci.Nic.plan_read nic ~hops:0 ~src ~src_off:0 ~dst ~dst_off:0 ~len:4 ());
  raises "nic convoy" (fun () -> Sci.Nic.plan_convoy nic ~hops:0 [])

let test_nic_read_roundtrip () =
  let _, nic, src, dst = fresh_pair () in
  Mem.Image.write_bytes src ~off:50 (Bytes.of_string "remote-data");
  Sci.Nic.read nic ~src ~src_off:50 ~dst ~dst_off:0 ~len:11 ();
  check Alcotest.string "read back" "remote-data" (Bytes.to_string (Mem.Image.read_bytes dst ~off:0 ~len:11));
  check_int "read bytes counted" 11 (Sci.Nic.counters nic).bytes_read

(* run_all's bulk path makes every copy before charging any: it must
   end where running the plans one by one ends — the bytes (a later
   plan wins where two overlap), each stream's clock and the counters. *)
let test_nic_run_all_equals_run () =
  let go all =
    let clock, nic, src, dst = fresh_pair () in
    Mem.Image.write_bytes src ~off:0 (Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff)));
    let other = Clock.create () in
    let plans =
      List.mapi
        (fun i (src_off, dst_off, len) ->
          ( (if i mod 2 = 0 then clock else other),
            Sci.Nic.plan_read nic ~hops:2 ~src ~src_off ~dst ~dst_off ~len () ))
        [ (0, 0, 200); (1000, 100, 64); (2048, 3000, 1000); (7, 150, 9); (3900, 0, 96) ]
    in
    if all then Sci.Nic.run_all nic plans
    else List.iter (fun (clock, plan) -> Sci.Nic.run ~clock nic plan) plans;
    (Mem.Image.read_bytes dst ~off:0 ~len:4096, Clock.now clock, Clock.now other, Sci.Nic.counters nic)
  in
  check_bool "run_all ends where run ends" true (go true = go false)

let test_nic_u64_roundtrip () =
  let _, nic, _, dst = fresh_pair () in
  Sci.Nic.write_u64 nic ~dst ~dst_off:16 0xfeedfacecafebeefL;
  check Alcotest.int64 "u64" 0xfeedfacecafebeefL (Sci.Nic.read_u64 nic ~src:dst ~src_off:16 ())

let prop_write_covers_range =
  QCheck.Test.make ~name:"nic run moves exactly the requested bytes (no widening)" ~count:200
    QCheck.(pair (int_bound 500) (int_range 1 1024))
    (fun (off, len) ->
      let _, nic, src, dst = fresh_pair () in
      for i = 0 to 4095 do
        Mem.Image.write_u8 src i ((i * 7) land 0xff)
      done;
      Sci.Nic.write nic ~src ~src_off:off ~dst ~dst_off:off ~len ();
      Mem.Image.equal_range src dst ~off ~len
      &&
      (* Bytes before/after the range stay zero. *)
      (off = 0 || Mem.Image.read_u8 dst (off - 1) = 0)
      && (off + len >= 4096 || Mem.Image.read_u8 dst (off + len) = 0))

(* The bulk path (with or without a sink) and the packet walk (a hook)
   must be indistinguishable: same bytes, clock and counters, one hook
   call per packet, the same piece instants, and a clock delta equal to
   the closed-form latency, which is the per-packet model's sum. *)
type shape =
  | Write of { window : bool; src_off : int; dst_off : int; len : int }
  | Read of { src_off : int; dst_off : int; len : int }
  | Convoy of (bool * int * int) list (* window, offset in its slot, len *)

let gen_shape =
  let open QCheck.Gen in
  let off = int_bound 1000 and len = int_bound 1500 in
  oneof
    [
      map
        (fun (window, (src_off, skew), len) -> Write { window; src_off; dst_off = src_off + skew; len })
        (triple bool (pair off (oneofl [ 0; 64; 7; 13 ])) len);
      map (fun ((src_off, dst_off), len) -> Read { src_off; dst_off; len }) (pair (pair off off) len);
      map (fun cs -> Convoy cs) (list_size (int_range 1 8) (triple bool (int_bound 300) (int_bound 200)));
    ]

let print_shape = function
  | Write w -> Printf.sprintf "write window=%b %d->%d len %d" w.window w.src_off w.dst_off w.len
  | Read r -> Printf.sprintf "read %d->%d len %d" r.src_off r.dst_off r.len
  | Convoy cs ->
      "convoy " ^ String.concat "; " (List.map (fun (w, off, len) -> Printf.sprintf "%b %d+%d" w off len) cs)

(* Convoy chunk [i] lives in its own 512-byte slot, so chunks stay disjoint. *)
let slot i = Mem.Segment.v ~base:(i * 512) ~len:512

let plan_of nic ~hops ~src ~dst = function
  | Write w ->
      let window = if w.window then Some (Mem.Segment.v ~base:0 ~len:4096) else None in
      Sci.Nic.plan_write nic ~hops ~tag:"w" ?window ~src ~src_off:w.src_off ~dst ~dst_off:w.dst_off
        ~len:w.len ()
  | Read r ->
      Sci.Nic.plan_read nic ~hops ~tag:"r" ~src ~src_off:r.src_off ~dst ~dst_off:r.dst_off ~len:r.len ()
  | Convoy cs ->
      Sci.Nic.plan_convoy nic ~hops
        (List.mapi
           (fun i (window, off, len) ->
             let off = Mem.Segment.base (slot i) + off in
             {
               Sci.Nic.ck_tag = (if i mod 2 = 0 then "even" else "odd");
               ck_window = (if window then Some (slot i) else None);
               ck_src = src;
               ck_src_off = off;
               ck_dst = dst;
               ck_dst_off = off;
               ck_len = len;
             })
           cs)

(* The remote ranges the shape's packets are cut from, with their
   traffic tags: sci_memcpy widening of section 4, restated
   independently of the NIC. *)
let cut_ranges shape =
  let widen ~window ~src_off ~dst_off ~len =
    match window with
    | Some w when len > 32 && src_off mod 64 = dst_off mod 64 ->
        let lo = max (Mem.Segment.base w) (dst_off / 64 * 64)
        and hi = min (Mem.Segment.base w + Mem.Segment.len w) ((dst_off + len + 63) / 64 * 64) in
        if lo <= dst_off && hi >= dst_off + len then (lo, hi - lo) else (dst_off, len)
    | _ -> (dst_off, len)
  in
  match shape with
  | Write w ->
      let window = if w.window then Some (Mem.Segment.v ~base:0 ~len:4096) else None in
      [ ("w", widen ~window ~src_off:w.src_off ~dst_off:w.dst_off ~len:w.len) ]
  | Read r -> [ ("r", (r.src_off, r.len)) ]
  | Convoy cs ->
      List.mapi
        (fun i (window, off, len) ->
          let off = Mem.Segment.base (slot i) + off in
          ( (if i mod 2 = 0 then "even" else "odd"),
            widen ~window:(if window then Some (slot i) else None) ~src_off:off ~dst_off:off ~len ))
        cs

let start = Time.us 1.0

(* The per-packet cost model, restated: the first packet pays the burst
   overhead, the first Full64 the pipeline fill, later Full64s stream,
   the last packet of a write ending on a buffer's last word earns the
   bonus, and no packet charges below zero.  Each packet comes with its
   piece (index and tag), its charge and whether it streamed. *)
let per_packet (p : Sci.Params.t) ~hops shape =
  let read = match shape with Read _ -> true | Write _ | Convoy _ -> false in
  let ranges = List.filter (fun (_, (_, len)) -> len > 0) (cut_ranges shape) in
  let bonus =
    (not read)
    && match List.rev ranges with (_, (off, len)) :: _ -> Sci.Packet.ends_on_last_word p ~off ~len | [] -> false
  in
  let pkts =
    List.concat
      (List.mapi
         (fun i (tag, (off, len)) -> List.map (fun pkt -> ((i, tag), pkt)) (Sci.Packet.of_range p ~off ~len))
         ranges)
  in
  let n = List.length pkts in
  let cost i streamed (pkt : Sci.Packet.t) =
    let own =
      match (pkt.kind, read) with
      | Part16, false -> p.t_pkt16
      | Part16, true -> 2 * p.t_pkt16
      | Full64, false -> if streamed then p.t_pkt64_stream else p.t_pkt64_first
      | Full64, true -> if streamed then p.t_read_pkt64_stream else p.t_read_pkt64_first
    in
    let base = if read then p.t_read_base else p.t_base in
    let first = if i = 0 then base + ((hops - 1) * p.t_hop) else 0 in
    max 0 (own + first - if i = n - 1 && bonus then p.t_lastword_bonus else 0)
  in
  let rec walk i seen64 = function
    | [] -> []
    | (piece, (pkt : Sci.Packet.t)) :: rest ->
        let streamed = seen64 && pkt.kind = Full64 in
        (piece, pkt, cost i streamed pkt, streamed) :: walk (i + 1) (seen64 || pkt.kind = Full64) rest
  in
  walk 0 false pkts

(* The piece instants those packets make: one per run of packets of one
   piece, stamped when its last packet lands. *)
let piece_events ~dir pkts =
  let rec go at = function
    | [] -> []
    | (piece, _, _, _) :: _ as l ->
        let mine = List.filter (fun (pc, _, _, _) -> pc = piece) l in
        let rest = List.filter (fun (pc, _, _, _) -> pc <> piece) l in
        let at = List.fold_left (fun at (_, _, cost, _) -> at + cost) at mine in
        let n f = string_of_int (List.fold_left (fun acc x -> acc + f x) 0 mine) in
        let args =
          [
            ("tag", snd piece);
            ("full64", n (fun (_, (pkt : Sci.Packet.t), _, _) -> Bool.to_int (pkt.kind = Full64)));
            ("part16", n (fun (_, (pkt : Sci.Packet.t), _, _) -> Bool.to_int (pkt.kind = Part16)));
            ("streamed", n (fun (_, _, _, streamed) -> Bool.to_int streamed));
            ("bytes", n (fun (_, (pkt : Sci.Packet.t), _, _) -> pkt.len));
            ("dir", dir);
            ("op", "prop");
          ]
        in
        { Trace.Event.name = "piece"; cat = "sci"; at; args } :: go at rest
  in
  go start pkts

type outcome = { image : string; now : Time.t; counters : Sci.Nic.counters; gauges : string }

let apply_shape ~params ~hops ~observe shape =
  let clock = Clock.create ~at:start () in
  let nic = Sci.Nic.create ~params clock in
  let tel = Trace.Timeseries.create () in
  Sci.Nic.set_telemetry nic tel;
  let src = Mem.Image.create ~size:8192 and dst = Mem.Image.create ~size:8192 in
  for i = 0 to 8191 do
    Mem.Image.write_u8 src i (1 + (i mod 251))
  done;
  let plan = plan_of nic ~hops ~src ~dst shape in
  let hooks = ref 0 and sink = Trace.Sink.memory () in
  if observe <> `Bulk then begin
    Sci.Nic.set_sink nic sink;
    Sci.Nic.set_ctx nic [ ("op", "prop") ]
  end;
  (match observe with
  | `Bulk | `Sink -> Sci.Nic.run nic plan
  | `Hook cut -> (
      try Sci.Nic.run nic plan ~before:(fun () -> if !hooks = cut then raise Cut else incr hooks)
      with Cut -> ()));
  (* A sample mirrors the streamed-packet counter and the per-tag byte
     gauges into the timeseries. *)
  Trace.Timeseries.sample tel ~at:(Clock.now clock);
  let outcome =
    {
      image = Bytes.to_string (Mem.Image.read_bytes dst ~off:0 ~len:8192);
      now = Clock.now clock;
      counters = Sci.Nic.counters nic;
      gauges = Trace.Timeseries.to_json tel;
    }
  in
  (plan, outcome, !hooks, Trace.Sink.events sink)

let prop_walk_equals_bulk =
  QCheck.Test.make ~name:"nic: walked and bulk application agree" ~count:500
    (QCheck.make
       ~print:(fun ((y, big), (h, cut), s) ->
         Printf.sprintf "years %d big bonus %b hops %d cut %d %s" y big h cut (print_shape s))
       QCheck.Gen.(triple (pair (int_bound 10) bool) (pair (int_range 1 3) (int_bound 10_000)) gen_shape))
    (fun ((years, big_bonus), (hops, cut), shape) ->
      (* A bonus as large as a first packet makes the zero clamp bite. *)
      let params = Sci.Params.projected ~years () in
      let params = if big_bonus then { params with t_lastword_bonus = params.t_pkt64_first } else params in
      let plan, bulk, _, _ = apply_shape ~params ~hops ~observe:`Bulk shape in
      let _, hooked, hooks, walked = apply_shape ~params ~hops ~observe:(`Hook max_int) shape in
      let _, sunk, _, events = apply_shape ~params ~hops ~observe:`Sink shape in
      let packets = Sci.Nic.plan_packets plan in
      (* Cut before packet [cut]: possibly inside a piece. *)
      let cut = cut mod Int.max 1 packets in
      let _, _, _, partial = apply_shape ~params ~hops ~observe:(`Hook cut) shape in
      let expected = per_packet params ~hops shape in
      let dir = match shape with Read _ -> "read" | Write _ | Convoy _ -> "write" in
      let count k = List.fold_left (fun acc (e : Trace.Event.t) -> acc + int_of_string (List.assoc k e.args)) 0 in
      bulk = hooked && bulk = sunk && hooks = packets
      && List.length expected = packets
      && events = walked
      && events = piece_events ~dir expected
      && count "full64" events + count "part16" events = packets
      && partial = piece_events ~dir (List.filteri (fun i _ -> i < cut) expected)
      && bulk.now - start = Sci.Nic.plan_latency plan
      && Sci.Nic.plan_latency plan = List.fold_left (fun acc (_, _, cost, _) -> acc + cost) 0 expected)

(* One plan, several destinations: a plan built once without a
   destination and run on each of 1–3 destinations (an image of its
   own, buffer-aligned window bases, 1–4 hops) must end exactly where
   one plan built per destination, at that destination's addresses and
   hop count, ends: the same bytes in every image, the same counters,
   the clock after each run, the hook calls and the piece instants — on
   the bulk, sink and walked paths.  The walk charges packet by packet,
   so the bulk and sink runs must also end where it ends.  One parameter
   set makes a one-packet burst's latency clamp at zero at one hop but
   not at more. *)
type copy = { win : int; off : int; len : int; widen : bool; skew : int }

let win_len w = if w = 0 then 512 else 448
let copy_tag c = if c.win = 0 then "undo" else "data"

(* Within the window; half the copies are one 16-byte packet ending on
   a buffer's last word, whose burst alone earns the last-word bonus
   and, under the clamping parameters, clamps at one hop. *)
let gen_copy =
  let open QCheck.Gen in
  let* win = int_bound 1 in
  let wl = win_len win in
  let* off, len =
    oneof
      [
        (let* off = int_bound (wl - 1) in
         map (fun len -> (off, len)) (int_bound (Int.min 160 (wl - off))));
        map2 (fun k e -> ((64 * k) + 48, 16 - e)) (int_bound ((wl / 64) - 1)) (int_bound 3);
      ]
  in
  let* widen = bool in
  let* skew = oneofl [ 0; 0; 64; 7 ] in
  return { win; off; len; widen; skew }

(* Window [w] of a destination starts [64 * r] bytes into its own 4 KiB. *)
let gen_dest =
  QCheck.Gen.(map (fun (hops, r0, r1) -> (hops, [| 64 * r0; 4096 + (64 * r1) |])) (triple (int_range 1 4) (int_bound 55) (int_bound 55)))

let params_sets =
  [
    ("default", Sci.Params.default);
    ("projected 6y", Sci.Params.projected ~years:6 ());
    ( "clamping",
      { Sci.Params.default with t_base = 0; t_lastword_bonus = Sci.Params.default.t_pkt16 + Time.us 0.4 } );
  ]

let src_off c = 2048 + (1024 * c.win) + c.off + c.skew

(* Run [copies] on every destination, either from one plan ([shared]) or
   from one plan per destination. *)
let run_dests ~params ~observe ~shared copies dests =
  let clock = Clock.create ~at:start () in
  let nic = Sci.Nic.create ~params clock in
  let src = Mem.Image.create ~size:8192 in
  for i = 0 to 8191 do
    Mem.Image.write_u8 src i (1 + (i mod 251))
  done;
  let hooks = ref 0 and sink = Trace.Sink.memory () in
  if observe = `Sink then Sci.Nic.set_sink nic sink;
  let before = if observe = `Walk then Some (fun () -> incr hooks) else None in
  let plan =
    Sci.Nic.plan_pieces nic
      (List.map
         (fun c ->
           Sci.Nic.piece nic ~tag:(copy_tag c) ~widen:c.widen ~win:c.win ~win_len:(win_len c.win)
             ~off:c.off ~src ~src_off:(src_off c) ~len:c.len)
         copies)
  in
  let run (hops, bases) =
    let image = Mem.Image.create ~size:8192 in
    (if shared then
       Sci.Nic.run_to ?before nic (Sci.Nic.dest nic ~image ~bases ~lens:[| win_len 0; win_len 1 |] ~hops) plan
     else
       Sci.Nic.run ?before nic
         (Sci.Nic.plan_convoy nic ~hops
            (List.map
               (fun c ->
                 let base = bases.(c.win) in
                 {
                   Sci.Nic.ck_tag = copy_tag c;
                   ck_window = (if c.widen then Some (Mem.Segment.v ~base ~len:(win_len c.win)) else None);
                   ck_src = src;
                   ck_src_off = src_off c;
                   ck_dst = image;
                   ck_dst_off = base + c.off;
                   ck_len = c.len;
                 })
               copies)));
    (Bytes.to_string (Mem.Image.read_bytes image ~off:0 ~len:8192), Clock.now clock)
  in
  let ends = List.map run dests in
  (ends, Sci.Nic.counters nic, !hooks, Trace.Sink.events sink)

let prop_one_plan_many_destinations =
  QCheck.Test.make ~name:"nic: one plan runs on several destinations" ~count:500
    (QCheck.make
       ~print:(fun (ps, copies, dests) ->
         Printf.sprintf "params %s, copies [%s], destinations [%s]" (fst (List.nth params_sets ps))
           (String.concat "; "
              (List.map
                 (fun c -> Printf.sprintf "w%d %d+%d widen=%b skew=%d" c.win c.off c.len c.widen c.skew)
                 copies))
           (String.concat "; "
              (List.map (fun (h, b) -> Printf.sprintf "hops %d at %d,%d" h b.(0) b.(1)) dests)))
       QCheck.Gen.(
         triple (int_bound 2)
           (oneof [ map (fun c -> [ c ]) gen_copy; list_size (int_range 2 4) gen_copy ])
           (list_size (int_range 1 3) gen_dest)))
    (fun (ps, copies, dests) ->
      let params = snd (List.nth params_sets ps) in
      let run observe shared = run_dests ~params ~observe ~shared copies dests in
      let ((walked, walked_counters, _, _) as walk) = run `Walk true in
      List.for_all
        (fun observe ->
          let ((ends, counters, _, _) as shared) = run observe true in
          shared = run observe false && ends = walked && counters = walked_counters)
        [ `Bulk; `Sink ]
      && walk = run `Walk false)

(* A destination's windows bound the plan: a piece that ends past its
   window's length there is refused before any piece moves, though the
   image behind the window is large enough to take it. *)
let test_nic_refuses_piece_past_window () =
  let clock = Clock.create ~at:start () in
  let nic = Sci.Nic.create clock in
  let src = Mem.Image.create ~size:4096 in
  Mem.Image.fill src ~off:0 ~len:4096 'x';
  let plan =
    Sci.Nic.plan_pieces nic
      [
        Sci.Nic.piece nic ~tag:"data" ~widen:false ~win:0 ~win_len:256 ~off:0 ~src ~src_off:0 ~len:64;
        Sci.Nic.piece nic ~tag:"undo" ~widen:false ~win:1 ~win_len:256 ~off:128 ~src ~src_off:0 ~len:128;
      ]
  in
  let image = Mem.Image.create ~size:4096 in
  let short = Sci.Nic.dest nic ~image ~bases:[| 0; 1024 |] ~lens:[| 256; 192 |] ~hops:1 in
  List.iter
    (fun before ->
      (try
         Sci.Nic.run_to ?before nic short plan;
         Alcotest.fail "expected Invalid_argument"
       with Invalid_argument _ -> ());
      check_bool "no byte moved" true
        (Mem.Image.equal_range image (Mem.Image.create ~size:4096) ~off:0 ~len:4096);
      check_int "no time charged" start (Clock.now clock);
      check_int "no packet counted" 0 (Sci.Nic.counters nic).packets16)
    [ None; Some ignore ];
  Sci.Nic.run_to nic (Sci.Nic.dest nic ~image ~bases:[| 0; 1024 |] ~lens:[| 256; 256 |] ~hops:1) plan;
  check_int "the plan fits windows of the lengths it was built for" 192 (Sci.Nic.plan_bytes plan)

(* A plan built without a destination runs only through [run_to]:
   [run], [run_all] (whose bulk pass checks nothing per plan) and
   [plan_latency] refuse it, with pieces or without, and move nothing. *)
let test_nic_refuses_unbound_plan () =
  let clock = Clock.create ~at:start () in
  let nic = Sci.Nic.create clock in
  let src = Mem.Image.create ~size:256 in
  let copy = Sci.Nic.piece nic ~tag:"data" ~widen:false ~win:0 ~win_len:256 ~off:0 ~src ~src_off:0 ~len:64 in
  List.iter
    (fun plan ->
      List.iter
        (fun (what, f) ->
          match f () with
          | () -> Alcotest.failf "%s: expected Invalid_argument" what
          | exception Invalid_argument _ -> ())
        [
          ("run", fun () -> Sci.Nic.run nic plan);
          ("run_all", fun () -> Sci.Nic.run_all nic [ (clock, plan) ]);
          ("plan_latency", fun () -> ignore (Sci.Nic.plan_latency plan));
        ];
      check_int "no time charged" start (Clock.now clock);
      check_int "no burst counted" 0 (Sci.Nic.counters nic).bursts)
    [ Sci.Nic.plan_pieces nic [ copy ]; Sci.Nic.plan_pieces nic [] ]

let suite =
  [
    ("packet: small store", `Quick, test_packet_small_store);
    ("packet: crossing sub-block boundary", `Quick, test_packet_crossing_subblock);
    ("packet: full buffer", `Quick, test_packet_full_buffer);
    ("packet: mixed 200B", `Quick, test_packet_mixed);
    ("packet: unaligned both sides", `Quick, test_packet_unaligned_both_sides);
    ("packet: empty and invalid", `Quick, test_packet_empty_and_invalid);
    ("packet: last-word detection", `Quick, test_last_word);
    ("packet: buffer index mapping", `Quick, test_buffer_index);
    QCheck_alcotest.to_alcotest prop_packets_conserve_bytes;
    QCheck_alcotest.to_alcotest prop_packets_sorted_disjoint;
    ("latency: calibration points", `Quick, test_latency_calibration_points);
    ("latency: aligned 64B wins above 32B", `Quick, test_latency_aligned_wins_above_32);
    ("latency: monotone in buffers", `Quick, test_latency_monotone_in_buffers);
    ("latency: streaming amortisation", `Quick, test_latency_streaming_amortises);
    ("latency: 1MB transaction budget", `Quick, test_latency_1mb_under_100ms);
    ("latency: ring hops", `Quick, test_latency_hops);
    ("latency: reads cost more than writes", `Quick, test_read_more_expensive_than_write);
    ("latency: local copy model", `Quick, test_local_copy_costs);
    ("params: technology projection", `Quick, test_projection_trend);
    QCheck_alcotest.to_alcotest prop_latency_positive_monotone_same_shape;
    ("nic: write copies and charges", `Quick, test_nic_write_copies_and_charges);
    ("nic: plan latency matches model", `Quick, test_nic_plan_latency_matches_model);
    ("nic: sci_memcpy widening", `Quick, test_nic_widening);
    ("nic: widening preserves mirror equality", `Quick, test_nic_widening_respects_mirror_equality);
    ("nic: no widening when misaligned", `Quick, test_nic_no_widening_when_misaligned);
    ("nic: traffic counters", `Quick, test_nic_counters);
    ("nic: partial application lands a prefix", `Quick, test_nic_step_by_step_partial);
    ("nic: hops below one rejected", `Quick, test_nic_rejects_zero_hops);
    QCheck_alcotest.to_alcotest prop_walk_equals_bulk;
    QCheck_alcotest.to_alcotest prop_one_plan_many_destinations;
    ("nic: a piece past its window is refused", `Quick, test_nic_refuses_piece_past_window);
    ("nic: a plan without a destination is refused", `Quick, test_nic_refuses_unbound_plan);
    ("nic: remote read roundtrip", `Quick, test_nic_read_roundtrip);
    ("nic: run_all ends where run ends", `Quick, test_nic_run_all_equals_run);
    ("nic: u64 roundtrip", `Quick, test_nic_u64_roundtrip);
    QCheck_alcotest.to_alcotest prop_write_covers_range;
  ]
