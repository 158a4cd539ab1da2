(* Tracing: the sink must be a pure observer (runs with and without it
   byte-identical in packet counts, stats and final clock), the txn
   span taxonomy must cover every clock charge (per-phase sums equal
   end-to-end latency exactly), and the exporters must produce
   Perfetto-loadable JSON. *)

open Sim
module P = Perseas
module Sup = Perseas.Supervisor

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

type bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  servers : Netram.Server.t list;
  t : P.t;
}

(* Primary on node 0; [k] mirrors on nodes 1..k; one spare at the end
   (same shape as the replication tests, so supervisor recruitment has
   somewhere to go). *)
let bed ~k () =
  let clock = Clock.create () in
  let dram = 4 * 1024 * 1024 in
  let specs =
    Cluster.spec ~dram_size:dram ~power_supply:0 "primary"
    :: (List.init k (fun i ->
            Cluster.spec ~dram_size:dram ~power_supply:(i + 1) (Printf.sprintf "mirror%d" i))
       @ [ Cluster.spec ~dram_size:dram ~power_supply:(k + 1) "spare" ])
  in
  let cluster = Cluster.create ~clock specs in
  let servers = List.init k (fun i -> Netram.Server.create (Cluster.node cluster (i + 1))) in
  let clients = List.map (fun server -> Netram.Client.create ~cluster ~local:0 ~server) servers in
  { clock; cluster; servers; t = P.init_replicated clients }

let with_db ~k ?(size = 4096) () =
  let b = bed ~k () in
  let seg = P.malloc b.t ~name:"db" ~size in
  P.write b.t seg ~off:0 (Bytes.init size (fun i -> Char.chr (i land 0xff)));
  P.init_remote_db b.t;
  (b, seg)

let commit_fill b seg fill =
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:64 ~len:128;
  P.write b.t seg ~off:64 (Bytes.make 128 fill);
  P.commit txn

let run_workload b seg n =
  for i = 0 to n - 1 do
    commit_fill b seg (Char.chr (Char.code 'a' + (i mod 26)))
  done

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Sink mechanics *)

let test_sink_basics () =
  check_bool "noop disabled" false (Trace.Sink.enabled Trace.Sink.noop);
  Trace.Sink.span Trace.Sink.noop ~cat:"txn" ~name:"x" ~start:0 ~stop:10;
  check_int "noop drops spans" 0 (Trace.Sink.span_count Trace.Sink.noop);
  let s = Trace.Sink.memory () in
  check_bool "memory enabled" true (Trace.Sink.enabled s);
  Trace.Sink.span s ~cat:"txn" ~name:"a" ~start:0 ~stop:5;
  Trace.Sink.span s ~cat:"txn" ~name:"b" ~start:5 ~stop:7 ~args:[ ("mirror", "0") ];
  Trace.Sink.instant s ~cat:"sci" ~name:"piece" ~at:6;
  check_int "two spans" 2 (Trace.Sink.span_count s);
  check_int "one event" 1 (Trace.Sink.event_count s);
  (match Trace.Sink.spans s with
  | [ a; b ] ->
      check_string "oldest first" "a" a.Trace.Span.name;
      check_int "duration" 2 (Trace.Span.duration b);
      check_string "args kept" "0" (List.assoc "mirror" b.Trace.Span.args)
  | _ -> Alcotest.fail "expected two spans");
  check_int "cursor window" 1 (List.length (Trace.Sink.spans_since s 1));
  Trace.Sink.clear s;
  check_int "cleared" 0 (Trace.Sink.span_count s)

(* ------------------------------------------------------------------ *)
(* The core invariant: tracing never perturbs the simulation. *)

let test_disabled_invariance () =
  let run traced =
    let b, seg = with_db ~k:2 () in
    if traced then P.set_sink b.t (Trace.Sink.memory ());
    run_workload b seg 40;
    ignore (P.abort (P.begin_transaction b.t));
    (Clock.now b.clock, Sci.Nic.counters (Cluster.nic b.cluster), P.stats b.t)
  in
  let clock_on, nic_on, stats_on = run true in
  let clock_off, nic_off, stats_off = run false in
  check_int "final clock identical" clock_off clock_on;
  check_bool "NIC counters identical" true (nic_off = nic_on);
  check_bool "engine stats identical" true (stats_off = stats_on)

(* The txn spans are disjoint and cover every clock charge, so their
   summed durations equal the end-to-end virtual time exactly (integer
   nanoseconds, no tolerance needed). *)
let test_taxonomy_covers_latency () =
  let b, seg = with_db ~k:2 () in
  let sink = Trace.Sink.memory () in
  P.set_sink b.t sink;
  let t0 = Clock.now b.clock in
  run_workload b seg 25;
  let elapsed = Clock.now b.clock - t0 in
  let txn_spans = List.filter (fun (s : Trace.Span.t) -> s.cat = "txn") (Trace.Sink.spans sink) in
  let total = List.fold_left (fun acc s -> acc + Trace.Span.duration s) 0 txn_spans in
  check_int "txn spans sum to end-to-end latency" elapsed total;
  let names = List.sort_uniq compare (List.map (fun (s : Trace.Span.t) -> s.name) txn_spans) in
  List.iter
    (fun n -> check_bool (n ^ " present") true (List.mem n names))
    [
      "begin"; "set_range"; "local_undo"; "remote_undo"; "in_place_write"; "commit";
      "commit_propagate"; "commit_fence";
    ];
  (* Per-mirror phases name the mirror they hit. *)
  let mirrors =
    List.filter_map
      (fun (s : Trace.Span.t) ->
        if s.name = "remote_undo" then List.assoc_opt "mirror" s.args else None)
      txn_spans
    |> List.sort_uniq compare
  in
  check (Alcotest.list Alcotest.string) "both mirrors hit" [ "0"; "1" ] mirrors

let test_abort_span () =
  let b, seg = with_db ~k:1 () in
  let sink = Trace.Sink.memory () in
  P.set_sink b.t sink;
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:64;
  P.write b.t seg ~off:0 (Bytes.make 64 'z');
  P.abort txn;
  let names = List.map (fun (s : Trace.Span.t) -> s.name) (Trace.Sink.spans sink) in
  check_bool "abort span recorded" true (List.mem "abort" names);
  check_bool "no commit span" false (List.mem "commit" names)

(* ------------------------------------------------------------------ *)
(* NIC and RPC events *)

let pieces sink = List.filter (fun (e : Trace.Event.t) -> e.name = "piece") (Trace.Sink.events sink)

let sum_arg k = List.fold_left (fun acc (e : Trace.Event.t) -> acc + int_of_string (List.assoc k e.args)) 0

let test_nic_piece_events () =
  let b, seg = with_db ~k:1 () in
  let nic = Cluster.nic b.cluster in
  let sink = Trace.Sink.memory () in
  P.set_sink b.t sink;
  let before = Sci.Nic.counters nic in
  run_workload b seg 10;
  let after = Sci.Nic.counters nic in
  let events = pieces sink in
  check_int "pieces carry every 64B packet" (after.packets64 - before.packets64) (sum_arg "full64" events);
  check_int "pieces carry every 16B packet" (after.packets16 - before.packets16) (sum_arg "part16" events);
  check_int "pieces carry every byte"
    (after.bytes_written + after.bytes_read - before.bytes_written - before.bytes_read)
    (sum_arg "bytes" events);
  check_bool "pieces tagged bulk" true
    (List.exists (fun (e : Trace.Event.t) -> List.assoc_opt "tag" e.args = Some "bulk") events)

(* A 16 KB transaction at one mirror is three pieces, however many
   packets each takes: the undo record pushed at set_range, the data
   run and the epoch fence. *)
let test_large_txn_three_pieces () =
  let b = bed ~k:1 () in
  let module W = Workloads.Synthetic.Make (P.Engine) in
  let db = W.setup b.t ~db_size:(64 * 1024) in
  let nic = Cluster.nic b.cluster in
  let sink = Trace.Sink.memory () in
  P.set_sink b.t sink;
  let before = Sci.Nic.counters nic in
  W.transaction db (Rng.create 3) ~tx_size:(16 * 1024);
  let after = Sci.Nic.counters nic in
  let sci = List.filter (fun (e : Trace.Event.t) -> e.cat = "sci") (Trace.Sink.events sink) in
  check (Alcotest.list Alcotest.string) "undo record, data run, fence"
    [ "remote_undo"; "commit_propagate"; "commit_fence" ]
    (List.map (fun (e : Trace.Event.t) -> Option.value ~default:"" (List.assoc_opt "op" e.args)) sci);
  check_int "their counts sum to the NIC delta"
    (after.packets64 + after.packets16 - before.packets64 - before.packets16)
    (sum_arg "full64" sci + sum_arg "part16" sci)

let test_netram_rpc_events () =
  let b = bed ~k:1 () in
  let sink = Trace.Sink.memory () in
  P.set_sink b.t sink;
  ignore (P.malloc b.t ~name:"seg" ~size:1024);
  let rpcs =
    List.filter
      (fun (e : Trace.Event.t) -> e.cat = "netram" && List.assoc_opt "tag" e.args = Some "rpc")
      (Trace.Sink.events sink)
  in
  check_bool "malloc emitted an rpc instant" true
    (List.exists (fun (e : Trace.Event.t) -> List.assoc_opt "op" e.args = Some "malloc") rpcs)

(* ------------------------------------------------------------------ *)
(* Supervisor and recovery *)

let test_supervisor_instants () =
  let b, seg = with_db ~k:1 () in
  commit_fill b seg 'a';
  let sink = Trace.Sink.memory () in
  P.set_sink b.t sink;
  let spare = Netram.Server.create (Cluster.node b.cluster (Cluster.size b.cluster - 1)) in
  let sup = Sup.create ~spares:[ spare ] b.t in
  ignore (Cluster.crash_node b.cluster 1 Cluster.Failure.Hardware_error);
  Clock.advance b.clock Sup.default_policy.probe_interval;
  Sup.tick sup;
  let sup_events =
    List.filter (fun (e : Trace.Event.t) -> e.cat = "supervisor") (Trace.Sink.events sink)
  in
  let names = List.map (fun (e : Trace.Event.t) -> e.name) sup_events in
  check_bool "mirror_lost instant" true (List.mem "mirror_lost" names);
  check_bool "recruited instant" true (List.mem "recruited" names);
  (* Recruitment resyncs the spare: a mirror/resync span too. *)
  check_bool "resync span" true
    (List.exists
       (fun (s : Trace.Span.t) -> s.cat = "mirror" && s.name = "resync")
       (Trace.Sink.spans sink))

let test_recovery_spans () =
  let b, seg = with_db ~k:2 () in
  commit_fill b seg 'a';
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let sink = Trace.Sink.memory () in
  let t2 =
    P.recover_replicated ~sink ~cluster:b.cluster ~local:(Cluster.size b.cluster - 1)
      ~servers:b.servers ()
  in
  ignore t2;
  let rec_spans =
    List.filter (fun (s : Trace.Span.t) -> s.cat = "recovery") (Trace.Sink.spans sink)
  in
  let names = List.map (fun (s : Trace.Span.t) -> s.name) rec_spans in
  List.iter
    (fun n -> check_bool (n ^ " phase present") true (List.mem n names))
    [ "probe"; "repair"; "fetch_db"; "resync_mirrors" ];
  (* The four phases are contiguous: they partition recovery's whole
     virtual extent. *)
  (match (rec_spans, List.rev rec_spans) with
  | first :: _, last :: _ ->
      let covered =
        List.fold_left (fun acc s -> acc + Trace.Span.duration s) 0 rec_spans
      in
      check_int "phases partition recovery time" (last.Trace.Span.stop - first.Trace.Span.start)
        covered
  | _ -> Alcotest.fail "no recovery spans")

(* ------------------------------------------------------------------ *)
(* Breakdown, exporters, Measure integration *)

let test_breakdown () =
  let mk name start stop =
    { Trace.Span.name; cat = "txn"; start; stop; args = [] }
  in
  let spans =
    [ mk "commit" 0 4_000; mk "commit" 4_000 6_000; mk "begin" 6_000 6_500;
      { Trace.Span.name = "other"; cat = "io"; start = 0; stop = 9_000; args = [] } ]
  in
  (match Trace.breakdown ~cat:"txn" spans with
  | [ c; b ] ->
      check_string "biggest first" "commit" c.Trace.phase;
      check_int "count" 2 c.Trace.count;
      check (Alcotest.float 1e-9) "total" 6. c.Trace.total_us;
      check (Alcotest.float 1e-9) "mean" 3. c.Trace.mean_us;
      check_string "then begin" "begin" b.Trace.phase
  | l -> Alcotest.failf "expected two phases, got %d" (List.length l));
  check_int "unrestricted sees both cats" 3 (List.length (Trace.breakdown spans))

let test_chrome_export () =
  let b, seg = with_db ~k:2 () in
  let sink = Trace.Sink.memory () in
  P.set_sink b.t sink;
  run_workload b seg 5;
  let json = Trace.Export.chrome_json ~spans:(Trace.Sink.spans sink) ~events:(Trace.Sink.events sink) () in
  let has affix = contains json affix in
  check_bool "trace_event envelope" true (has "{\"traceEvents\":[");
  check_bool "complete spans" true (has "\"ph\":\"X\"");
  check_bool "instants" true (has "\"ph\":\"i\"");
  (* A span with arg mirror=1 lands on tid 3 (its own Perfetto track). *)
  check_bool "per-mirror track" true (has "\"tid\":3");
  check_bool "balanced" true (String.length json > 2 && json.[String.length json - 1] = '}')

let test_measure_phases () =
  let b, seg = with_db ~k:1 () in
  let sink = Trace.Sink.memory () in
  P.set_sink b.t sink;
  let tx _ = commit_fill b seg 'm' in
  let r = Harness.Measure.run ~clock:b.clock ~sink ~warmup:5 ~iters:20 tx in
  check_bool "phases populated" true (r.Harness.Measure.phases <> []);
  let total =
    List.fold_left (fun acc (p : Trace.phase_stat) -> acc +. p.total_us) 0.
      r.Harness.Measure.phases
  in
  let elapsed_us = Time.to_us r.Harness.Measure.elapsed in
  check_bool "phase sums equal measured window (<1% drift)" true
    (Float.abs (total -. elapsed_us) /. elapsed_us < 0.01);
  (* Warmup spans are excluded by cursor: commit count matches iters. *)
  (match
     List.find_opt (fun (p : Trace.phase_stat) -> p.phase = "commit") r.Harness.Measure.phases
   with
  | Some p -> check_int "only measured commits counted" 20 p.Trace.count
  | None -> Alcotest.fail "no commit phase");
  let b2, seg2 = with_db ~k:1 () in
  let r2 = Harness.Measure.run ~clock:b2.clock ~warmup:2 ~iters:5 (fun _ -> commit_fill b2 seg2 'n') in
  check_bool "no sink, no phases" true (r2.Harness.Measure.phases = [])

let suite =
  [
    ("sink basics", `Quick, test_sink_basics);
    ("tracing leaves the run byte-identical", `Quick, test_disabled_invariance);
    ("txn spans cover end-to-end latency", `Quick, test_taxonomy_covers_latency);
    ("abort path traced", `Quick, test_abort_span);
    ("one instant per SCI piece", `Quick, test_nic_piece_events);
    ("a 16 KB transaction is three pieces", `Quick, test_large_txn_three_pieces);
    ("netram rpc instants", `Quick, test_netram_rpc_events);
    ("supervisor instants", `Quick, test_supervisor_instants);
    ("recovery phase spans", `Quick, test_recovery_spans);
    ("breakdown aggregation", `Quick, test_breakdown);
    ("chrome json export", `Quick, test_chrome_export);
    ("Measure.run per-phase breakdown", `Quick, test_measure_phases);
  ]
