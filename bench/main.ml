(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (see DESIGN.md's experiment index).

   Usage:
     dune exec bench/main.exe                 # all experiments + BENCH_latency.json
     dune exec bench/main.exe -- fig6 table1  # a subset
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --latency    # BENCH_latency.json only
     dune exec bench/main.exe -- --all        # engine x workload matrix -> BENCH_summary.json
     dune exec bench/main.exe -- compare --against BENCH_summary.json [--tolerance PCT] [--p99-tolerance PCT]
                                              # re-measure the matrix, exit 1 on regression *)

let run_experiments names =
  match Harness.Experiments.run names with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "%s (try --list)\n" msg;
      exit 2

(* Machine-readable latency baseline for future perf PRs: virtual tps
   and per-phase mean latency of the standard mixes on one mirror. *)
let bench_latency ?(path = "BENCH_latency.json") () =
  let entries =
    List.map
      (fun mix ->
        let tail = Trace.Tail.create () in
        let r, _sink =
          Harness.Experiments.traced_run ~tail ~mix ~mirrors:1 ~warmup:200 ~iters:2000 ()
        in
        let phases =
          String.concat ", "
            (List.map
               (fun (p : Trace.phase_stat) -> Printf.sprintf "%S: %.4f" p.phase p.mean_us)
               r.Harness.Measure.phases)
        in
        (* Additive column: per-phase p99 from the live Tail histograms.
           Old baselines without it still parse and gate. *)
        let phase_p99 =
          String.concat ", "
            (List.map
               (fun (name, p) -> Printf.sprintf "%S: %.4f" name p)
               (Trace.Tail.phase_p99s tail))
        in
        Printf.sprintf
          "  %S: { \"tps\": %.1f, \"mean_us\": %.4f, \"p99_us\": %.4f, \"phase_mean_us\": { %s }, \
           \"phase_p99_us\": { %s } }"
          (Harness.Experiments.mix_label mix)
          r.Harness.Measure.tps r.Harness.Measure.mean_us r.Harness.Measure.p99_us phases phase_p99)
      Harness.Experiments.latency_mixes
  in
  let oc = open_out path in
  output_string oc ("{\n" ^ String.concat ",\n" entries ^ "\n}\n");
  close_out oc;
  Printf.printf "wrote %s\n" path

(* The perf-gate matrix: tps / mean / p99 per engine x workload
   (PERSEAS at 1-3 mirrors), written at the repo root where CI commits
   it as the regression baseline. *)
let bench_all ?(path = "BENCH_summary.json") () =
  let entries = Harness.Bench_summary.collect () in
  Harness.Bench_summary.write ~path entries;
  let header = [ "engine"; "workload"; "mirrors"; "tps"; "mean (us)"; "p99 (us)" ] in
  let rows =
    List.map
      (fun (e : Harness.Bench_summary.entry) ->
        [
          e.engine;
          e.workload;
          (if e.mirrors = 0 then "-" else string_of_int e.mirrors);
          Harness.Table.fmt_tps e.tps;
          Harness.Table.fmt_us e.mean_us;
          Harness.Table.fmt_us e.p99_us;
        ])
      entries
  in
  Harness.Table.print ~title:"Benchmark summary (virtual time, deterministic)" ~header rows;
  Printf.printf "wrote %s (%d cells)\n" path (List.length entries)

(* Measure the matrix fresh and judge it against a committed baseline;
   exits 1 on any gate failure so CI can block the merge. *)
let bench_compare ~against ~tolerance_pct ~p99_tolerance_pct =
  let baseline =
    try Harness.Bench_summary.load against
    with e ->
      Printf.eprintf "cannot load baseline %s: %s\n" against (Printexc.to_string e);
      exit 2
  in
  let verdicts, failed =
    Harness.Bench_summary.compare_to_baseline ~tolerance_pct ~p99_tolerance_pct ~baseline
      (Harness.Bench_summary.collect ())
  in
  Harness.Bench_summary.print_verdicts ~tolerance_pct verdicts;
  if failed then begin
    Printf.eprintf
      "bench gate FAILED: debit-credit tps regressed more than %.0f%% or p99 grew more than %.0f%%\n"
      tolerance_pct p99_tolerance_pct;
    exit 1
  end
  else
    Printf.printf "bench gate passed (tps tolerance %.0f%%, p99 tolerance %.0f%%)\n" tolerance_pct
      p99_tolerance_pct

let rec parse_compare_args against tolerance p99_tolerance = function
  | [] -> (against, tolerance, p99_tolerance)
  | "--against" :: path :: rest -> parse_compare_args (Some path) tolerance p99_tolerance rest
  | "--tolerance" :: pct :: rest -> (
      match float_of_string_opt pct with
      | Some p when p >= 0.0 -> parse_compare_args against (Some p) p99_tolerance rest
      | _ ->
          Printf.eprintf "compare: bad --tolerance %S\n" pct;
          exit 2)
  | "--p99-tolerance" :: pct :: rest -> (
      match float_of_string_opt pct with
      | Some p when p >= 0.0 -> parse_compare_args against tolerance (Some p) rest
      | _ ->
          Printf.eprintf "compare: bad --p99-tolerance %S\n" pct;
          exit 2)
  | arg :: _ ->
      Printf.eprintf "compare: unknown argument %S\n" arg;
      exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
      run_experiments [];
      bench_latency ();
      print_endline "\nAll experiments done; CSVs are under results/."
  | [ "--list" ] ->
      print_endline "Available experiments:";
      Harness.Experiments.print_list ()
  | [ "--latency" ] -> bench_latency ()
  | [ "--all" ] -> bench_all ()
  | "compare" :: rest ->
      let against, tolerance, p99_tolerance = parse_compare_args None None None rest in
      let against = Option.value against ~default:"BENCH_summary.json" in
      bench_compare ~against
        ~tolerance_pct:(Option.value tolerance ~default:10.0)
        ~p99_tolerance_pct:(Option.value p99_tolerance ~default:20.0)
  | names -> run_experiments names
