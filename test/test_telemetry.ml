(* Telemetry: the gauge/timeseries layer must be a pure observer (an
   instrumented churn run produces the exact report of a bare one), the
   sampled series must be deterministic per seed and agree with the
   supervisor's event log, the ring-buffer sink must drop oldest with
   an honest count, and every JSON surface the harness emits must
   survive a real parser — odd metric names included. *)

open Sim
module P = Perseas
module Ts = Trace.Timeseries
module J = Harness.Json
module Tm = Harness.Telemetry

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Events.every: the sampling grid                                     *)

let test_every_grid () =
  let clock = Clock.create () in
  let q = Events.create clock in
  let fired = ref [] in
  Events.every q ~interval:10 ~until:100 (fun at -> fired := at :: !fired);
  (* Jump past several grid points: the catch-up must fire each missed
     point with its own grid time, not the pump time. *)
  Clock.advance_to clock 35;
  Events.run_due q;
  check (Alcotest.list Alcotest.int) "catch-up labels" [ 10; 20; 30 ] (List.rev !fired);
  Clock.advance_to clock 100;
  Events.run_due q;
  check (Alcotest.list Alcotest.int) "full grid"
    [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]
    (List.rev !fired);
  (* Nothing stays scheduled past [until]. *)
  Clock.advance_to clock 500;
  Events.run_due q;
  check_int "stops at until" 10 (List.length !fired);
  Alcotest.check_raises "non-positive interval"
    (Invalid_argument "Events.every: interval must be positive") (fun () ->
      Events.every q ~interval:0 ~until:100 (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Gauges and sampling                                                 *)

let test_gauge_basics () =
  let ts = Ts.create () in
  check_bool "enabled" true (Ts.enabled ts);
  let g = Ts.gauge ts "occupancy" in
  Trace.Gauge.set g 5;
  Trace.Gauge.add g 3;
  check_int "value" 8 (Ts.value ts "occupancy");
  Trace.Gauge.set g 2;
  check_int "set down" 2 (Ts.value ts "occupancy");
  check_int "hwm survives" 8 (Ts.hwm ts "occupancy");
  (* Same name, same gauge. *)
  Trace.Gauge.add (Ts.gauge ts "occupancy") 1;
  check_int "find-or-create" 3 (Ts.value ts "occupancy");
  Ts.sample ts ~at:17;
  (match Ts.samples ts with
  | [ s ] ->
      check_int "sample time" 17 s.Ts.at;
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "sample values"
        [ ("occupancy", 3) ] s.Ts.values
  | l -> Alcotest.failf "expected one sample, got %d" (List.length l));
  (* Disabled: the shared dummy absorbs everything. *)
  check_bool "noop disabled" false (Ts.enabled Ts.noop);
  let d = Ts.gauge Ts.noop "x" in
  Trace.Gauge.set d 42;
  check_int "noop value" 0 (Ts.value Ts.noop "x");
  Ts.sample Ts.noop ~at:5;
  check_int "noop never samples" 0 (Ts.sample_count Ts.noop)

let test_rate_gauge () =
  let ts = Ts.create () in
  Ts.set ts "committed" 0;
  Ts.rate ts ~name:"tps" ~source:"committed";
  Ts.sample ts ~at:0;
  check_int "first sample: no history" 0 (Ts.value ts "tps");
  Ts.set ts "committed" 100;
  Ts.sample ts ~at:(Time.us 10.0);
  (* 100 transactions in 10 us of virtual time = 10M/s. *)
  check_int "per-second rate" 10_000_000 (Ts.value ts "tps");
  Ts.sample ts ~at:(Time.us 20.0);
  check_int "flat source, zero rate" 0 (Ts.value ts "tps")

(* ------------------------------------------------------------------ *)
(* Ring-buffer sink                                                    *)

let test_sink_ring () =
  let s = Trace.Sink.memory ~capacity:3 () in
  for i = 1 to 5 do
    Trace.Sink.span s ~cat:"t" ~name:(Printf.sprintf "s%d" i) ~start:i ~stop:(i + 1);
    Trace.Sink.instant s ~cat:"t" ~name:(Printf.sprintf "e%d" i) ~at:i
  done;
  check_int "span_count counts everything" 5 (Trace.Sink.span_count s);
  check_int "dropped oldest spans" 2 (Trace.Sink.dropped_spans s);
  check_int "dropped oldest events" 2 (Trace.Sink.dropped_events s);
  check (Alcotest.list Alcotest.string) "ring keeps newest" [ "s3"; "s4"; "s5" ]
    (List.map (fun (x : Trace.Span.t) -> x.name) (Trace.Sink.spans s));
  check (Alcotest.list Alcotest.string) "events too" [ "e3"; "e4"; "e5" ]
    (List.map (fun (x : Trace.Event.t) -> x.name) (Trace.Sink.events s));
  (* Cursors survive the wrap: evicted entries are simply absent. *)
  check (Alcotest.list Alcotest.string) "since-cursor after wrap" [ "s5" ]
    (List.map (fun (x : Trace.Span.t) -> x.name) (Trace.Sink.spans_since s 4));
  check (Alcotest.list Alcotest.string) "cursor older than ring" [ "s3"; "s4"; "s5" ]
    (List.map (fun (x : Trace.Span.t) -> x.name) (Trace.Sink.spans_since s 1));
  (* The unbounded default never drops. *)
  let u = Trace.Sink.memory () in
  for i = 1 to 100 do
    Trace.Sink.span u ~cat:"t" ~name:"s" ~start:i ~stop:i
  done;
  check_int "unbounded keeps all" 100 (List.length (Trace.Sink.spans u));
  check_int "unbounded drops none" 0 (Trace.Sink.dropped_spans u);
  Alcotest.check_raises "bad capacity" (Invalid_argument "Trace.Sink.memory: capacity 0 not positive")
    (fun () -> ignore (Trace.Sink.memory ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* JSON surfaces through a real parser                                 *)

let num_exn k j = J.to_float (J.member_exn k j)

(* Primary plus two mirror nodes, database initialised. *)
let mini_bed () =
  let clock = Clock.create () in
  let dram = 4 * 1024 * 1024 in
  let specs =
    [
      Cluster.spec ~dram_size:dram ~power_supply:0 "primary";
      Cluster.spec ~dram_size:dram ~power_supply:1 "mirror0";
      Cluster.spec ~dram_size:dram ~power_supply:2 "mirror1";
    ]
  in
  let cluster = Cluster.create ~clock specs in
  let servers = List.init 2 (fun i -> Netram.Server.create (Cluster.node cluster (i + 1))) in
  let clients = List.map (fun server -> Netram.Client.create ~cluster ~local:0 ~server) servers in
  (clock, cluster, P.init_replicated clients)

let test_json_parser () =
  (* The grammar corners the emitters lean on. *)
  (match J.parse {|{"a":[1,-2.5e2,true,false,null],"b":{"c":"d"}}|} with
  | Ok j ->
      check_int "list len" 3
        (match J.member_exn "a" j with J.List l -> List.length l - 2 | _ -> -1);
      check (Alcotest.float 0.0) "sci notation"
        (-250.0)
        (match J.member_exn "a" j with J.List (_ :: n :: _) -> J.to_float n | _ -> nan);
      check_string "nested" "d" (J.to_string (J.member_exn "c" (J.member_exn "b" j)))
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Escapes, including a surrogate pair decoded to UTF-8. *)
  (match J.parse {|{"s":"q\"b\\n\nuAp😀"}|} with
  | Ok j ->
      check_string "escape decoding" "q\"b\\n\nuAp\xf0\x9f\x98\x80"
        (J.to_string (J.member_exn "s" j))
  | Error e -> Alcotest.failf "escape parse failed: %s" e);
  (* Garbage must be rejected, not glossed over. *)
  List.iter
    (fun bad ->
      match J.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [ "{"; {|{"a":1} trailing|}; {|{"a":}|}; {|"unterminated|}; {|{"s":"\uD800"}|}; "nul"; "" ]

let test_emitted_json_parses () =
  (* Timeseries snapshot, with metric names that stress the escaper. *)
  let ts = Ts.create () in
  Ts.set ts "plain" 1;
  Ts.set ts {|quote"inside|} 2;
  Ts.set ts {|back\slash|} 3;
  Ts.set ts "new\nline" 4;
  Ts.set ts "tab\tcol" 5;
  let j =
    match J.parse (Ts.to_json ts) with
    | Ok j -> j
    | Error e -> Alcotest.failf "Timeseries.to_json unparseable: %s" e
  in
  let gauges = J.member_exn "gauges" j in
  List.iter
    (fun (name, v) ->
      let g = J.member_exn name gauges in
      check_int ("gauge " ^ String.escaped name) v (int_of_float (num_exn "value" g));
      check_int "hwm" v (int_of_float (num_exn "hwm" g)))
    [ ("plain", 1); ({|quote"inside|}, 2); ({|back\slash|}, 3); ("new\nline", 4); ("tab\tcol", 5) ];
  (* Engine stats: the new fields must be present and numeric. *)
  let _, _, t = mini_bed () in
  let j =
    match J.parse (P.stats_to_json (P.stats t)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "stats_to_json unparseable: %s" e
  in
  List.iter
    (fun k -> ignore (num_exn k j))
    [ "committed"; "aborts"; "undo_hwm_bytes"; "degraded_us" ]

let test_chrome_counter_tracks () =
  let series =
    [
      { Ts.at = 0; values = [ ("g1", 1); ("g2", 10) ] };
      { Ts.at = Time.us 5.0; values = [ ("g1", 2); ("g2", 20) ] };
    ]
  in
  let json = Trace.Export.chrome_json ~series ~spans:[] ~events:[] () in
  let j =
    match J.parse json with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome_json unparseable: %s" e
  in
  let evs = J.to_list (J.member_exn "traceEvents" j) in
  let counters = List.filter (fun e -> J.member "ph" e = Some (J.Str "C")) evs in
  check_int "one counter event per gauge per sample" 4 (List.length counters);
  let g1_vals =
    List.filter_map
      (fun e ->
        if J.member "name" e = Some (J.Str "g1") then
          Some (int_of_float (num_exn "value" (J.member_exn "args" e)))
        else None)
      counters
  in
  check (Alcotest.list Alcotest.int) "counter values in order" [ 1; 2 ] g1_vals

(* ------------------------------------------------------------------ *)
(* Engine stats: aborts, undo HWM, degraded time                       *)

let test_engine_stats () =
  let clock, cluster, t = mini_bed () in
  let seg = P.malloc t ~name:"seg" ~size:4096 in
  P.init_remote_db t;
  let tx () =
    let txn = P.begin_transaction t in
    P.set_range txn seg ~off:0 ~len:256;
    P.commit txn
  in
  tx ();
  let txn = P.begin_transaction t in
  P.set_range txn seg ~off:0 ~len:64;
  P.abort txn;
  let s = P.stats t in
  check_int "aborts counted" 1 s.P.aborts;
  check_bool "undo hwm covers the 256-byte range" true (s.P.undo_hwm_bytes >= 256);
  check_int "not degraded yet" 0 s.P.degraded_us;
  (* Kill a mirror; the failed write opens a degraded window that
     counts up with the clock until replication is restored. *)
  ignore (Cluster.crash_node cluster 1 Cluster.Failure.Software_error);
  tx ();
  check_int "mirror retired" 1 (P.mirror_count t);
  let d0 = (P.stats t).P.degraded_us in
  Clock.advance clock (Time.us 500.0);
  let d1 = (P.stats t).P.degraded_us in
  check_bool "open window counts up" true (d1 >= d0 + 500);
  check_int "target unchanged" 2 (P.replication_target t)

(* Every engine counter is a gauge under its own name: one sample after
   a commit and an abort, and each [stats_fields] entry reads back as
   [perseas.<name>] with the counter's value. *)
let test_stats_gauges () =
  let clock, _, t = mini_bed () in
  let tel = Ts.create () in
  P.set_telemetry t tel;
  let seg = P.malloc t ~name:"seg" ~size:4096 in
  P.init_remote_db t;
  let txn = P.begin_transaction t in
  P.set_range txn seg ~off:0 ~len:256;
  P.write t seg ~off:0 (Bytes.make 256 'x');
  P.commit txn;
  let txn = P.begin_transaction t in
  P.set_range txn seg ~off:512 ~len:64;
  P.abort txn;
  Ts.sample tel ~at:(Clock.now clock);
  let names = Ts.names tel in
  List.iter
    (fun (name, v) ->
      let g = "perseas." ^ name in
      check_bool (g ^ " published") true (List.mem g names);
      check_int g v (Ts.value tel g))
    (P.stats_fields (P.stats t))

(* ------------------------------------------------------------------ *)
(* Churn telemetry: determinism, invariance, agreement                 *)

let small_params = { Harness.Churn.default_params with duration = Time.ms 20.0 }

let instrumented = lazy (Tm.instrumented_churn ~params:small_params ())

let test_churn_csv_deterministic () =
  let _, tel1 = Lazy.force instrumented in
  let _, tel2 = Tm.instrumented_churn ~params:small_params () in
  let h1, rows1 = Tm.csv ~tel:tel1 in
  let h2, rows2 = Tm.csv ~tel:tel2 in
  check_bool "sampled something" true (List.length rows1 > 0);
  check (Alcotest.list Alcotest.string) "same header" h1 h2;
  check_bool "byte-identical rows" true (rows1 = rows2)

let test_telemetry_off_invariance () =
  (* The sampler lives on its own event queue, so instrumenting the run
     must not move a single scheduling decision: the full report —
     counts, windows, stats, event log, checksums — is structurally
     identical with telemetry on and off. *)
  let r_on, _ = Lazy.force instrumented in
  let r_off = Harness.Churn.run ~params:small_params () in
  check_int "committed identical" r_off.Harness.Churn.committed r_on.Harness.Churn.committed;
  check_bool "stats identical" true (r_off.Harness.Churn.stats = r_on.Harness.Churn.stats);
  check_bool "whole report identical" true (r_off = r_on)

let test_degraded_agreement () =
  let r, tel = Lazy.force instrumented in
  check_bool "churn produced degraded windows" true (r.Harness.Churn.windows <> []);
  let a =
    Tm.agreement ~target:small_params.Harness.Churn.mirrors ~samples:(Ts.samples tel)
      r.Harness.Churn.supervisor_events
  in
  Tm.check_agreement a;
  check_bool "sampler saw at least one window" true (a.Tm.windows_seen >= 1);
  check_bool "every signal matched" true (a.Tm.matched_signals = a.Tm.degraded_signals);
  (* The degraded time the gauges accumulated agrees with the report's
     own accounting (within one sampling interval of slack). *)
  let final_us =
    match List.rev (Ts.samples tel) with
    | last :: _ -> ( match List.assoc_opt "perseas.degraded_us" last.Ts.values with Some v -> v | None -> 0)
    | [] -> 0
  in
  check_bool "gauge degraded time is real" true (final_us > 0)

(* ------------------------------------------------------------------ *)
(* Bench summary: round-trip and the regression gate                   *)

let test_bench_gate () =
  let module B = Harness.Bench_summary in
  let e ?(engine = "PERSEAS") ?(workload = "debit-credit") ?(mirrors = 1) ?pkts ?(p99 = 46.25)
      ?(phases = []) tps =
    {
      B.engine;
      workload;
      mirrors;
      tps;
      mean_us = 43.5;
      p99_us = p99;
      pkts_per_txn = pkts;
      phase_p99 = phases;
    }
  in
  let current = [ e 1000.0; e ~workload:"order-entry" 500.0; e ~engine:"Vista" ~mirrors:0 2000.0 ] in
  (* Round-trip through the writer and the parser. *)
  let parsed = B.of_json (J.parse_exn (B.to_json current)) in
  check_bool "json round-trip" true (parsed = current);
  (* Measured values round-trip exactly, so an unchanged tree compares
     against its own baseline at +0.0%, not at a rounding error. *)
  let measured = [ { (e ~pkts:7.8173 ~p99:45.92 46911.73) with B.mean_us = 21.316379310344827 } ] in
  check_bool "measured values round-trip exactly" true
    (B.of_json (J.parse_exn (B.to_json measured)) = measured);
  (* Identical baseline: clean pass. *)
  let _, failed = B.compare_to_baseline ~baseline:current current in
  check_bool "identical baseline passes" false failed;
  (* Within tolerance: 5% down on 10% tolerance still passes. *)
  let _, failed = B.compare_to_baseline ~baseline:[ e 1052.0 ] current in
  check_bool "small drift passes" false failed;
  (* The acceptance check: a doctored 2x baseline must fail the gate. *)
  let doctored = List.map (fun (x : B.entry) -> { x with B.tps = x.tps *. 2.0 }) current in
  let verdicts, failed = B.compare_to_baseline ~baseline:doctored current in
  check_bool "2x baseline fails" true failed;
  check_int "only debit-credit cells gate" 2
    (List.length (List.filter (fun v -> v.B.failed) verdicts));
  (* order-entry regressions are informational, not gating. *)
  let _, failed =
    B.compare_to_baseline ~baseline:[ e ~workload:"order-entry" 5000.0 ] current
  in
  check_bool "order-entry not gated" false failed;
  (* A debit-credit cell vanishing from the matrix fails too. *)
  let _, failed =
    B.compare_to_baseline ~baseline:(e ~mirrors:7 900.0 :: current) current
  in
  check_bool "missing gated cell fails" true failed;
  (* The packet column: round-trips, gates on growth, and a baseline
     without it never engages the packet gate. *)
  let with_pkts = [ e ~pkts:9.5 1000.0 ] in
  let parsed = B.of_json (J.parse_exn (B.to_json with_pkts)) in
  check_bool "pkts column round-trips" true (parsed = with_pkts);
  let _, failed = B.compare_to_baseline ~baseline:[ e ~pkts:9.5 1000.0 ] with_pkts in
  check_bool "same packets passes" false failed;
  let _, failed = B.compare_to_baseline ~baseline:[ e ~pkts:8.0 1000.0 ] with_pkts in
  check_bool "packet growth fails even with tps flat" true failed;
  let _, failed = B.compare_to_baseline ~baseline:[ e 1000.0 ] with_pkts in
  check_bool "old baseline without pkts does not gate packets" false failed;
  let _, failed =
    B.compare_to_baseline ~baseline:[ e ~workload:"order-entry" ~pkts:8.0 1000.0 ]
      [ e ~workload:"order-entry" ~pkts:16.0 1000.0 ]
  in
  check_bool "packet gate only on debit-credit" false failed;
  (* The p99 gate: a tps-flat run whose tail blew past the 20%
     tolerance fails; growth inside the tolerance passes; non
     debit-credit tails are informational. *)
  let _, failed = B.compare_to_baseline ~baseline:[ e ~p99:40.0 1000.0 ] [ e ~p99:50.0 1000.0 ] in
  check_bool "25% p99 growth fails with tps flat" true failed;
  let _, failed = B.compare_to_baseline ~baseline:[ e ~p99:40.0 1000.0 ] [ e ~p99:46.0 1000.0 ] in
  check_bool "15% p99 growth passes" false failed;
  let _, failed =
    B.compare_to_baseline ~p99_tolerance_pct:30.0 ~baseline:[ e ~p99:40.0 1000.0 ]
      [ e ~p99:50.0 1000.0 ]
  in
  check_bool "p99 tolerance is adjustable" false failed;
  let _, failed =
    B.compare_to_baseline ~baseline:[ e ~workload:"order-entry" ~p99:40.0 1000.0 ]
      [ e ~workload:"order-entry" ~p99:80.0 1000.0 ]
  in
  check_bool "p99 gate only on debit-credit" false failed;
  (* The per-phase tail column: round-trips through JSON, an old
     baseline without it still gates, and a failed verdict carries the
     baseline attribution when present. *)
  let phases = [ ("set_range", 5.5); ("commit_fence", 12.25) ] in
  let with_phases = [ e ~phases 1000.0 ] in
  let parsed = B.of_json (J.parse_exn (B.to_json with_phases)) in
  check_bool "phase_p99 column round-trips" true (parsed = with_phases);
  let _, failed = B.compare_to_baseline ~baseline:[ e 1000.0 ] with_phases in
  check_bool "old baseline without phase_p99 still gates" false failed;
  let verdicts, failed =
    B.compare_to_baseline ~baseline:[ e ~phases ~p99:30.0 1000.0 ] [ e ~phases ~p99:50.0 1000.0 ]
  in
  check_bool "blown p99 with phases fails" true failed;
  (match List.find_opt (fun v -> v.B.failed) verdicts with
  | Some v -> check_bool "verdict carries baseline attribution" true (v.B.baseline_phase_p99 = phases)
  | None -> Alcotest.fail "expected a failed verdict")

let suite =
  [
    Alcotest.test_case "Events.every grid and catch-up" `Quick test_every_grid;
    Alcotest.test_case "gauge set/add/hwm, noop dummy" `Quick test_gauge_basics;
    Alcotest.test_case "rate gauge derivative" `Quick test_rate_gauge;
    Alcotest.test_case "ring-buffer sink drops oldest, counts drops" `Quick test_sink_ring;
    Alcotest.test_case "JSON parser grammar and escapes" `Quick test_json_parser;
    Alcotest.test_case "emitted JSON parses (odd names included)" `Quick test_emitted_json_parses;
    Alcotest.test_case "chrome export grows counter tracks" `Quick test_chrome_counter_tracks;
    Alcotest.test_case "stats: aborts, undo hwm, degraded time" `Quick test_engine_stats;
    Alcotest.test_case "every stats field is a perseas.<name> gauge" `Quick test_stats_gauges;
    Alcotest.test_case "churn series deterministic per seed" `Quick test_churn_csv_deterministic;
    Alcotest.test_case "telemetry off = byte-identical run" `Quick test_telemetry_off_invariance;
    Alcotest.test_case "degraded windows agree with supervisor log" `Quick test_degraded_agreement;
    Alcotest.test_case "bench summary round-trip and gate" `Quick test_bench_gate;
  ]
