(* Metric names and units, the result line, and the [agree] comparison
   of two sets of runs against the bounds in BENCHMARK.json. *)

module Json = Harness.Json

let end_to_end =
  [
    ("vtps", "txn/s");
    ("pkts_per_txn", "packets");
    ("wall_txn_per_s", "txn/s");
    ("wall_recover_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("core.vlat_p50_us", "us");
    ("core.vlat_p99_us", "us");
    ("recovery.virt_us", "us");
    ("core.begin_ns", "ns");
    ("core.set_range_ns", "ns");
    ("core.write_ns", "ns");
    ("core.commit_ns", "ns");
    ("core.set_range_per_txn", "calls");
    ("core.write_bytes_per_txn", "bytes");
    ("core.undo_bytes_per_txn", "bytes");
    ("core.elided_bytes_per_txn", "bytes");
    ("core.conflicts_per_txn", "count");
    ("core.abort_ratio", "fraction");
    ("core.group_batch", "txns");
    ("core.ckpt_take_ms", "ms");
    ("core.ckpt_bytes", "bytes");
    ("harness.untimed_ns_per_txn", "ns");
  ]
  @ List.map (fun ph -> ("phase." ^ ph ^ "_us", "us")) Probe.txn_phases
  @ List.map (fun ph -> ("recovery." ^ ph ^ "_us", "us")) Probe.recovery_phases
  @ [
      ("sci.pkts64_per_txn", "packets");
      ("sci.pkts16_per_txn", "packets");
      ("sci.bytes_written_per_txn", "bytes");
      ("sci.write_amp", "ratio");
      ("sci.bytes_read_per_recovery", "bytes");
      ("cluster.switches_per_1k_txn", "count");
      ("cluster.cross_conflicts_per_1k_txn", "count");
      ("cluster.cross_lat_p50_us", "us");
      ("trace.spans_per_txn", "count");
      ("trace.events_per_txn", "count");
      ("trace.overhead_pct", "%");
      ("gc.minor_words_per_txn", "words");
      ("gc.promoted_words_per_txn", "words");
      ("gc.major_collections", "count");
      ("sim.events_ns", "ns");
      ("mem.blit_4k_ns", "ns");
      ("sci.write_64_ns", "ns");
      ("sci.write_4k_ns", "ns");
      ("sci.convoy_8x64_ns", "ns");
      ("netram.write_128_ns", "ns");
      ("netram.read_4k_ns", "ns");
      ("core.iset_add_ns", "ns");
      ("core.dc_txn_ns", "ns");
      ("trace.tail_observe_ns", "ns");
      ("host.calib_ns", "ns");
    ]

let unit_of name = List.assoc name (end_to_end @ per_layer)

(* Every digit the float carries; JSON has no literal for a non-finite
   number, so those print as null (and fail the finiteness check). *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let correct (o : Runner.outcome) =
  List.for_all snd o.checks && List.for_all (fun (_, v) -> Float.is_finite v) o.metrics

let result_json (o : Runner.outcome) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (correct o) o.attempted
    o.failed
    (String.concat ", "
       (List.map
          (fun (name, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) (unit_of name))
          o.metrics))

(* One [name value unit] line per metric, failed checks on stderr, and
   the result object as the last line of standard output. *)
let print ?out (o : Runner.outcome) =
  List.iter (fun (name, v) -> Printf.printf "%s %s %s\n" name (number v) (unit_of name)) o.metrics;
  List.iter (fun (name, ok) -> if not ok then Printf.eprintf "check failed: %s\n" name) o.checks;
  List.iter
    (fun (name, v) -> if not (Float.is_finite v) then Printf.eprintf "check failed: %s is not finite\n" name)
    o.metrics;
  let json = result_json o in
  Option.iter (fun path -> Out_channel.with_open_text path (fun oc -> output_string oc (json ^ "\n"))) out;
  print_endline json

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json and [agree] *)

type bound = { metric : string; bound : float }

let load path = Json.parse_exn (In_channel.with_open_text path In_channel.input_all)
let names key j = List.map (fun m -> Json.to_string (Json.member_exn "name" m)) (Json.to_list (Json.member_exn key j))

let bounds j =
  List.map
    (fun m ->
      {
        metric = Json.to_string (Json.member_exn "name" m);
        bound = Json.to_float (Json.member_exn "bound" m);
      })
    (Json.to_list (Json.member_exn "end_to_end" j))

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)]. *)
let quartiles xs =
  let d = Array.of_list (List.sort compare xs) in
  let n = Array.length d in
  if n = 1 then (d.(0), d.(0), d.(0))
  else begin
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4. -. delta)) +. (d.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

(* The values of [metric] in every [<workload>-<i>.json] of [dir]. *)
let values dir ~workload ~metric =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> String.starts_with ~prefix:(workload ^ "-") f && Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         Option.bind
           (Json.member "metrics" (load (Filename.concat dir f)))
           (fun ms -> Option.bind (Json.member metric ms) (fun m -> Json.member "value" m))
         |> Option.map Json.to_float)

(* Prints median and quartiles per workload and end-to-end metric for
   both sets; false when any pair of medians differs by more than the
   metric's bound. *)
let agree ~benchmark a b =
  let j = load benchmark in
  Printf.printf "%-14s %-16s %14s %25s %14s %25s %8s %6s\n" "workload" "metric" "median A" "quartiles A"
    "median B" "quartiles B" "diff" "bound";
  List.fold_left
    (fun ok workload ->
      List.fold_left
        (fun ok m ->
          match (values a ~workload ~metric:m.metric, values b ~workload ~metric:m.metric) with
          | [], _ | _, [] ->
              Printf.printf "%-14s %-16s missing\n" workload m.metric;
              false
          | va, vb ->
              let qa1, ma, qa3 = quartiles va and qb1, mb, qb3 = quartiles vb in
              let diff = if ma = mb then 0. else (mb -. ma) /. Float.abs ma in
              let pass = Float.abs diff <= m.bound in
              Printf.printf "%-14s %-16s %14.6g %12.6g..%-11.6g %14.6g %12.6g..%-11.6g %+7.2f%% %5.1f%% %s\n" workload
                m.metric ma qa1 qa3 mb qb1 qb3 (100. *. diff) (100. *. m.bound)
                (if pass then "" else "FAIL");
              ok && pass)
        ok (bounds j))
    true (names "workloads" j)
