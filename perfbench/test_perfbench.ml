(* Tests of the benchmark itself: the durability stamps, the metric set
   each workload reports, and the quartiles [agree] compares. *)

open Perfbench
module DC = Workloads.Debit_credit

(* With group_commit = 1 every commit is durable when it returns, so the
   callback stamps must trail the true commit-return time by at most
   one begin. *)
let stamps_trail_commit_by_one_begin () =
  let bed =
    Harness.Sharding.make_bed ~config:{ Perseas.default_config with group_commit = 1 } ~dram_mb:4 ~shards:1 ()
  in
  let router = bed.Harness.Sharding.router in
  let t = Perseas.Shard.db router 0 in
  let module W = DC.Make (Perseas.Engine) in
  (* Four branches for four clients: enough conflicts to exercise the
     retry path, whose stamp lands after a begin. *)
  let db = W.setup t ~params:{ DC.small_params with scale = 4 } in
  let rng = Sim.Rng.create 3 in
  let fences = ref [] and begin_us = ref 0. in
  Perseas.set_sink t
    (Trace.Sink.observer
       ~on_span:(fun s ->
         match s.Trace.Span.name with
         | "commit_fence" -> fences := s.Trace.Span.stop :: !fences
         | "begin" -> begin_us := Trace.Span.duration_us s
         | _ -> ())
       ~on_event:ignore);
  let st = Stamp.create router in
  let spec = Stamp.spec st ~draw:(fun () -> W.draw db rng) ~declare:(W.declare db) ~apply:(W.apply db) in
  let starts = ref [] in
  let apply ((_, start) as work) =
    starts := start :: !starts;
    spec.Harness.Multi_client.apply work
  in
  let s = Harness.Multi_client.run t ~clients:4 ~total:300 { spec with apply } in
  Stamp.settle st;
  let stamped, _ = Stamp.take st in
  Alcotest.(check bool) "conflicts happened" true (s.Harness.Multi_client.conflicts > 0);
  Alcotest.(check int) "one stamp per commit" s.Harness.Multi_client.committed (Array.length stamped);
  List.iteri
    (fun i (start, fence) ->
      let late = stamped.(i) -. Sim.Time.to_us (fence - start) in
      if late < -1e-6 || late > !begin_us +. 1e-6 then
        Alcotest.failf "transaction %d: stamp %.3f us after commit return (begin costs %.3f us)" i late
          !begin_us)
    (List.combine (List.rev !starts) (List.rev !fences))

let benchmark = Report.load "../BENCHMARK.json"

let check_metrics kind (o : Runner.outcome) =
  let units = List.map (fun m -> Harness.Json.(to_string (member_exn "unit" m))) in
  let listed = Harness.Json.to_list (Harness.Json.member_exn kind benchmark) in
  Alcotest.(check (list string))
    (kind ^ " names") (List.sort compare (Report.names kind benchmark))
    (List.sort compare (List.map fst o.metrics));
  List.iter2
    (fun name u -> Alcotest.(check string) (name ^ " unit") u (Report.unit_of name))
    (Report.names kind benchmark) (units listed);
  List.iter
    (fun (name, v) -> if not (Float.is_finite v) then Alcotest.failf "%s is not finite" name)
    o.metrics;
  List.iter (fun (name, ok) -> if not ok then Alcotest.failf "check %s failed" name) o.checks

let workload_names () =
  Alcotest.(check (list string)) "workloads" (Report.names "workloads" benchmark) Scenario.names

let every_metric (w : Scenario.t) () =
  check_metrics "end_to_end" (Runner.untraced w ~seed:w.seed ~seconds:1.);
  check_metrics "per_layer" (Runner.traced ~micro_quota:0.001 w ~seed:w.seed ~seconds:1.)

let quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Report.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "exclusive quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

let () =
  Alcotest.run "perfbench"
    [
      ("stamp", [ Alcotest.test_case "stamps trail commit by one begin" `Quick stamps_trail_commit_by_one_begin ]);
      ( "metrics",
        Alcotest.test_case "workload names" `Quick workload_names
        :: List.map
             (fun (w : Scenario.t) -> Alcotest.test_case (w.name ^ " at 1/100") `Quick (every_metric w))
             (Scenario.all ~scale:0.01 ()) );
      ("agree", [ Alcotest.test_case "quartiles" `Quick quartiles ]);
    ]
