(* Trace.Tail: the log2 sub-bucketed histograms must report percentiles
   within their advertised tolerance of the exact nearest-rank answer,
   the worst-K reservoir must retain exactly the slowest windows under
   threshold admission, the observer sink must feed per-phase (and
   per-mirror) histograms from a live stream, and worst-K exemplars
   must export as Perfetto flow events. *)

open Sim
module J = Harness.Json

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float = check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* Histogram percentiles vs sorted-array ground truth                  *)

(* Positive floats spanning ~6 orders of magnitude, without relying on
   any particular QCheck float generator. *)
let pos_floats =
  QCheck.make
    ~print:QCheck.Print.(pair (list float) float)
    QCheck.Gen.(
      pair
        (list_size (int_range 1 200)
           (map (fun i -> (float_of_int i +. 1.) *. 0.37) (int_range 0 1_000_000)))
        (oneofl [ 0.; 50.; 90.; 99.; 100. ]))

let prop_percentile_tolerance =
  QCheck.Test.make ~name:"histogram percentile within bucket tolerance" ~count:300 pos_floats
    (fun (samples, p) ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) samples;
      (* Ground truth is the upper nearest-rank order statistic — the
         same convention the histogram documents.  (Interpolated
         percentiles can sit between two arbitrarily distant order
         statistics, which no per-bucket bound can cover.) *)
      let sorted = List.sort compare samples in
      let n = List.length samples in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int (n - 1))) in
      let exact = List.nth sorted rank in
      let got = Stats.Histogram.percentile h p in
      let tol = Stats.Histogram.tolerance h in
      abs_float (got -. exact) <= (tol *. exact) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Reservoir: threshold admission keeps exactly the slowest K          *)

let span ?(cat = "txn") ?(args = []) ~name start stop =
  { Trace.Span.name; cat; start = Time.us start; stop = Time.us stop; args }

let test_reservoir () =
  let tail = Trace.Tail.create ~k:2 () in
  check_float "empty reservoir has no admission bar" 0. (Trace.Tail.threshold_us tail);
  List.iteri
    (fun i lat ->
      Trace.Tail.observe tail ~latency_us:lat
        ~spans:[ span ~name:"commit" ~args:[ ("txn", string_of_int i) ] 0. lat ]
        ~events:[])
    [ 10.; 50.; 20.; 40.; 30. ];
  check_int "every observation counted" 5 (Trace.Tail.count tail);
  check_int "latency histogram fed" 5 (Stats.Histogram.count (Trace.Tail.latency tail));
  (match Trace.Tail.phase_hist tail "commit" with
  | Some h -> check_int "phase histogram fed per observe" 5 (Stats.Histogram.count h)
  | None -> Alcotest.fail "commit phase histogram missing");
  let ex = Trace.Tail.exemplars tail in
  check_int "exactly K retained" 2 (List.length ex);
  (match ex with
  | [ a; b ] ->
      check_float "slowest first" 50. a.Trace.Tail.e_latency_us;
      check_float "then second slowest" 40. b.Trace.Tail.e_latency_us;
      check (Alcotest.option Alcotest.string) "window names its txn" (Some "1")
        (Trace.Tail.exemplar_txn a)
  | _ -> Alcotest.fail "expected 2 exemplars");
  check_float "admission bar = fastest retained" 40. (Trace.Tail.threshold_us tail);
  check_bool "phase p99 reported" true (Trace.Tail.phase_p99s tail <> [])

(* ------------------------------------------------------------------ *)
(* Observer sink: live per-phase and per-mirror feeding                *)

let test_sink_phases () =
  let tail = Trace.Tail.create () in
  let sink = Trace.Tail.sink tail in
  check_bool "observer sink is enabled" true (Trace.Sink.enabled sink);
  Trace.Sink.span sink ~cat:"txn" ~name:"set_range" ~start:(Time.us 0.) ~stop:(Time.us 2.);
  Trace.Sink.span
    ~args:[ ("mirror", "1") ]
    sink ~cat:"txn" ~name:"remote_undo" ~start:(Time.us 2.) ~stop:(Time.us 5.);
  Trace.Sink.span sink ~cat:"recovery" ~name:"probe" ~start:(Time.us 0.) ~stop:(Time.us 1.);
  check_int "only txn phases recorded" 2 (List.length (Trace.Tail.phases tail));
  check_bool "per-mirror split recorded" true
    (List.exists
       (fun ((n, m), _) -> n = "remote_undo" && m = 1)
       (Trace.Tail.mirror_phases tail));
  check_bool "non-txn categories ignored" true (Trace.Tail.phase_hist tail "probe" = None)

(* ------------------------------------------------------------------ *)
(* Flow export: exemplars become Perfetto flow events                  *)

let test_flow_export () =
  let tail = Trace.Tail.create ~k:1 () in
  let spans = [ span ~name:"commit" ~args:[ ("txn", "7") ] 0. 10. ] in
  let events =
    [
      {
        Trace.Event.name = "piece";
        cat = "sci";
        at = Time.us 3.;
        args =
          [ ("op", "commit_propagate"); ("txn", "7"); ("node", "1"); ("full64", "1");
            ("part16", "0"); ("bytes", "64"); ("dir", "write") ];
      };
    ]
  in
  Trace.Tail.observe tail ~latency_us:10. ~spans ~events;
  let e = List.hd (Trace.Tail.exemplars tail) in
  let flows = List.map (fun tl -> ("worst txn 7 (10.0us)", tl)) (Trace.Tail.timelines e) in
  check_bool "exemplar window stitches into a timeline" true (flows <> []);
  let json = Trace.Export.chrome_json ~flows ~spans ~events () in
  let j = J.parse_exn json in
  let evs = J.to_list (J.member_exn "traceEvents" j) in
  let of_ph ph =
    List.filter
      (fun e ->
        match J.member "ph" e with Some p -> J.to_string p = ph | None -> false)
      evs
  in
  check_bool "flow start event emitted" true (of_ph "s" <> []);
  check_bool "flow finish event emitted" true (of_ph "f" <> []);
  match of_ph "s" with
  | e :: _ ->
      check (Alcotest.option Alcotest.string) "flow is named" (Some "worst txn 7 (10.0us)")
        (Option.map J.to_string (J.member "name" e))
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* End to end: a measured run feeds the tail through Measure           *)

let test_measure_integration () =
  let bed = Harness.Testbed.make ~mirrors:2 () in
  let t = bed.Harness.Testbed.perseas in
  let module W = Workloads.Debit_credit.Make (Perseas.Engine) in
  let rng = Rng.create 7 in
  let db = W.setup t ~params:Workloads.Debit_credit.small_params in
  let sink = Trace.Sink.memory () in
  Perseas.set_sink t sink;
  let tail = Trace.Tail.create ~k:4 () in
  let r =
    Harness.Measure.run ~clock:bed.Harness.Testbed.clock ~sink ~tail ~warmup:20 ~iters:200
      (fun _ -> W.transaction db rng)
  in
  check_int "every measured txn observed" 200 (Trace.Tail.count tail);
  let ex = Trace.Tail.exemplars tail in
  check_bool "exemplars retained" true (ex <> []);
  let worst = List.hd ex in
  check_bool "worst exemplar is at least the p99" true
    (worst.Trace.Tail.e_latency_us >= r.Harness.Measure.p99_us -. 1e-9);
  check_bool "worst exemplar fully phase-covered" true
    (Harness.Experiments.exemplar_coverage worst >= 0.95);
  check_bool "exemplar timeline non-empty" true (Trace.Tail.timelines worst <> []);
  check_bool "exemplar names its txn" true (Trace.Tail.exemplar_txn worst <> None);
  (* The attribution contract behind `perseas_cli explain`: named
     phases explain (at least) 95% of the measured p99. *)
  let phase_sum =
    List.fold_left (fun acc (_, p) -> acc +. p) 0. (Trace.Tail.phase_p99s tail)
  in
  check_bool "phases attribute >= 95% of p99" true
    (phase_sum >= 0.95 *. r.Harness.Measure.p99_us);
  (* Per-mirror splits exist for the mirror-side phases at 2 mirrors. *)
  check_bool "per-mirror phase histograms populated" true
    (List.length (Trace.Tail.mirror_phases tail) >= 2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_percentile_tolerance;
    Alcotest.test_case "worst-K reservoir threshold admission" `Quick test_reservoir;
    Alcotest.test_case "observer sink feeds phase histograms" `Quick test_sink_phases;
    Alcotest.test_case "exemplars export as Perfetto flow events" `Quick test_flow_export;
    Alcotest.test_case "Measure feeds tail: attribution + exemplars" `Quick
      test_measure_integration;
  ]
