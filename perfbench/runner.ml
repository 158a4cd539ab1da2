(* Runs one workload and turns what it measured into the benchmark's
   metrics.  An untraced run measures the end-to-end metrics; a traced
   run repeats the same work twice, untraced and then traced, checks
   that both give the same virtual-time results, and reports the
   per-layer metrics of the traced pass. *)

open Scenario

type outcome = {
  metrics : (string * float) list;
  checks : (string * bool) list;  (** Named correctness checks; all must hold. *)
  attempted : int;  (** Committed transactions plus recoveries. *)
  failed : int;  (** Recoveries that did not restore the committed image. *)
}

(* The untraced run sets the workload up this many times and reports
   the median set-up time. *)
let setups = 3

let percentile p xs =
  if Array.length xs = 0 then 0.
  else begin
    let s = Sim.Stats.Series.create () in
    Array.iter (Sim.Stats.Series.add s) xs;
    Sim.Stats.Series.percentile s p
  end

let median l = percentile 50. (Array.of_list l)
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio a b = if b = 0. then 0. else a /. b

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.find_map
        (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
        (String.split_on_char '\n' status)
      |> Option.value ~default:0.
  | exception Sys_error _ -> 0.

(* The virtual-time results: deterministic for a given seed, window and
   code, whatever the machine.  Throughput and packets are end-to-end
   metrics.  The latency percentiles and the recovery time often read
   the same for every seed, so the traced run reports them. *)
let committed steps = sum (fun s -> s.chunk.committed) steps

let virtual_end_to_end steps =
  [
    ("vtps", float_of_int (committed steps) /. (float_of_int (sum (fun s -> s.virt_ns) steps) *. 1e-9));
    ("pkts_per_txn", float_of_int (sum (fun s -> s.pkts) steps) /. float_of_int (committed steps));
  ]

let virtual_per_layer steps recs =
  let lat = Array.concat (List.map (fun s -> s.chunk.lat_us) steps) in
  [
    ("core.vlat_p50_us", percentile 50. lat);
    ("core.vlat_p99_us", percentile 99. lat);
    ("recovery.virt_us", median (List.map (fun r -> r.virt_us) recs));
  ]

let wall_txn_per_s steps =
  median (List.map (fun s -> float_of_int s.chunk.committed /. s.wall_s) steps)

(* ------------------------------------------------------------------ *)
(* One pass over a workload *)

type pass = {
  setup_s : float list;
  steps : step list;
  recs : recovery list;
  checks : (string * bool) list;
  takes : (float * int) list;  (** Checkpoint take: wall ms and bytes shipped. *)
}

let window_length per_s seconds = max 2 (int_of_float (Float.round (per_s *. seconds)))

let setup c engine ~seed =
  Timed.scaled (fun () ->
      let w = c.build engine ~seed (make_bed c) in
      ignore (w.run c.warmup);
      w)

let commit_pass ?trace ~setups c engine ~seed ~seconds =
  (* Extra set-ups are measured and dropped; collecting each before the
     next keeps them out of the peak resident set. *)
  let extra =
    List.init (setups - 1) (fun _ ->
        let s = snd (setup c engine ~seed) in
        Gc.full_major ();
        s)
  in
  let w, setup_s = setup c engine ~seed in
  Option.iter (fun tr -> List.iter (fun d -> Perseas.set_sink d tr.sink) (dbs w)) trace;
  let steps =
    List.init (window_length c.per_s seconds) (fun _ ->
        stretch ?trace ~src:(source w)
          ~vnow:(fun () -> Perseas.Shard.now (router w))
          ~packets:(fun () -> Sh.total_packets w.bed)
          (fun () -> w.run c.chunk_size))
  in
  let checks =
    [
      ("consistent", w.consistent ());
      ("verify_mirrors", List.for_all (fun d -> Perseas.verify_mirrors d = []) (dbs w));
    ]
  in
  let recs = recovery_rounds ?trace w ~rounds:c.rounds in
  { setup_s = extra @ [ setup_s ]; steps; recs; checks; takes = [] }

let cycles_pass ?trace spec engine ~seed ~cycles =
  let root = Sim.Rng.create seed in
  let all = List.init cycles (fun _ -> cycle spec engine ?trace ~rng:(Sim.Rng.split root) ()) in
  {
    setup_s = List.map (fun c -> c.prep_s) all;
    steps = List.map (fun c -> c.txns) all;
    recs = List.map (fun c -> c.recovered) all;
    checks = [];
    takes = List.map (fun c -> (c.take_ms, c.ckpt_bytes)) all;
  }

let pass ?trace ~setups w engine ~seconds =
  let p =
    match w.kind with
    | Commit c -> commit_pass ?trace ~setups c engine ~seed:w.seed ~seconds
    | Cycles { spec; per_s } -> cycles_pass ?trace spec engine ~seed:w.seed ~cycles:(window_length per_s seconds)
  in
  let checks = p.checks @ [ ("recovered_image", List.for_all (fun r -> r.durable) p.recs) ] in
  { p with checks }

let counts p =
  ( committed p.steps + List.length p.recs,
    List.length (List.filter (fun r -> not r.durable) p.recs) )

(* ------------------------------------------------------------------ *)
(* Untraced: the end-to-end metrics *)

let untraced w ~seed ~seconds =
  let w = { w with seed } in
  let p = pass ~setups w (module Perseas.Engine) ~seconds in
  let attempted, failed = counts p in
  {
    metrics =
      virtual_end_to_end p.steps
      @ [
          ("wall_txn_per_s", wall_txn_per_s p.steps);
          ("wall_recover_ms", median (List.map (fun r -> r.wall_ms) p.recs));
          ("setup_s", median p.setup_s);
          ("peak_rss_mb", peak_rss_mb ());
        ];
    checks = p.checks;
    attempted;
    failed;
  }

(* ------------------------------------------------------------------ *)
(* Traced: the per-layer metrics *)

let per_layer ~(trace : trace) (p : pass) ~untraced_rate =
  let g = Probe.get trace.txns and r = Probe.get trace.recovery in
  let committed = float_of_int (committed p.steps) in
  let rounds = float_of_int (List.length p.recs) in
  let per_txn x = x /. committed in
  let per_call op = ratio (g (op ^ ".ns")) (g (op ^ ".calls")) in
  let timed_ns = List.fold_left (fun acc op -> acc +. g (op ^ ".ns")) 0. [ "begin"; "set_range"; "write"; "commit" ] in
  let traced_rate = wall_txn_per_s p.steps in
  let takes = List.map fst p.takes and ckpt_bytes = List.map (fun (_, b) -> float_of_int b) p.takes in
  virtual_per_layer p.steps p.recs
  @ [
    ("core.begin_ns", per_call "begin");
    ("core.set_range_ns", per_call "set_range");
    ("core.write_ns", per_call "write");
    ("core.commit_ns", per_call "commit");
    ("core.set_range_per_txn", per_txn (g "set_ranges"));
    ("core.write_bytes_per_txn", per_txn (g "write.bytes"));
    ("core.undo_bytes_per_txn", per_txn (g "undo_bytes"));
    ("core.elided_bytes_per_txn", per_txn (g "elided_bytes"));
    ("core.conflicts_per_txn", per_txn (g "conflicts"));
    ( "core.abort_ratio",
      ratio
        (float_of_int (sum (fun s -> s.chunk.conflicts) p.steps))
        (float_of_int (sum (fun s -> s.chunk.attempts) p.steps)) );
    ("core.group_batch", ratio (g "group_txns") (g "group_flushes"));
    ("core.ckpt_take_ms", median takes);
    ("core.ckpt_bytes", median ckpt_bytes);
    ("harness.untimed_ns_per_txn", per_txn (g "wall_ns" -. timed_ns));
  ]
  @ List.map (fun ph -> ("phase." ^ ph ^ "_us", per_txn (g ("txn." ^ ph)) /. 1e3)) Probe.txn_phases
  @ List.map (fun ph -> ("recovery." ^ ph ^ "_us", ratio (r ("recovery." ^ ph)) rounds /. 1e3)) Probe.recovery_phases
  @ [
      ("sci.pkts64_per_txn", per_txn (g "pkts64"));
      ("sci.pkts16_per_txn", per_txn (g "pkts16"));
      ("sci.bytes_written_per_txn", per_txn (g "bytes_written"));
      ("sci.write_amp", ratio (g "bytes_written") (g "write.bytes"));
      ("sci.bytes_read_per_recovery", ratio (r "bytes_read") rounds);
      ("cluster.switches_per_1k_txn", 1e3 *. per_txn (g "switches"));
      ("cluster.cross_conflicts_per_1k_txn", 1e3 *. per_txn (g "cross_conflicts"));
      ("cluster.cross_lat_p50_us", percentile 50. (Array.concat (List.map (fun s -> s.chunk.cross_lat_us) p.steps)));
      ("trace.spans_per_txn", per_txn (g "spans"));
      ("trace.events_per_txn", per_txn (g "events"));
      ("trace.overhead_pct", 100. *. ratio (untraced_rate -. traced_rate) untraced_rate);
      ("gc.minor_words_per_txn", per_txn (g "minor_words"));
      ("gc.promoted_words_per_txn", per_txn (g "promoted_words"));
      ("gc.major_collections", g "major_collections");
    ]

let traced ?perfetto ~micro_quota w ~seed ~seconds =
  let w = { w with seed } in
  (* The microbenchmarks run first, on a small heap. *)
  let micro = Micro.run ~quota:micro_quota in
  let reference = pass ~setups:1 w (module Perseas.Engine) ~seconds in
  Gc.full_major ();
  Option.iter (fun _ -> Probe.record_ring ~capacity:100_000) perfetto;
  let trace = { sink = Probe.sink (); txns = Probe.window (); recovery = Probe.window () } in
  let p = pass ~trace ~setups:1 w (module Timed.Make (Perseas.Engine) : Timed.ENGINE) ~seconds in
  Option.iter Probe.dump_ring perfetto;
  let attempted, failed = counts p in
  {
    metrics = per_layer ~trace p ~untraced_rate:(wall_txn_per_s reference.steps) @ micro;
    checks =
      p.checks
      @ [
          ( "traced_virtual_equal",
            virtual_end_to_end p.steps = virtual_end_to_end reference.steps
            && virtual_per_layer p.steps p.recs = virtual_per_layer reference.steps reference.recs );
        ];
    attempted;
    failed;
  }
