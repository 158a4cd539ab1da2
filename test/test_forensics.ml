(* The forensic layer: causal cross-node timelines, the flight
   recorder, and the online protocol-invariant monitor.  The layer
   contract comes first — a fully instrumented run (ring + monitor +
   causal tags) stays byte-identical to an uninstrumented one — then
   the monitor must stay silent on legal runs (eager, group commit,
   checkpoints, mirror loss, recovery) and catch every seeded
   violation with the right typed alert. *)

open Sim
module P = Perseas
module F = Harness.Forensics
module M = Trace.Monitor

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

type bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  servers : Netram.Server.t list;
  ckpt : Netram.Server.t;
  t : P.t;
}

(* Primary on 0, two mirrors on 1-2, checkpoint target on 3, spare on
   4 — enough cluster to exercise every packet source the monitor
   attributes: commit bursts, convoys, resync, metadata pushes,
   checkpoint streaming. *)
let bed ?(config = P.default_config) () =
  let clock = Clock.create () in
  let dram = 4 * 1024 * 1024 in
  let names = [ "primary"; "mirror0"; "mirror1"; "ckpt"; "spare" ] in
  let specs = List.mapi (fun i n -> Cluster.spec ~dram_size:dram ~power_supply:i n) names in
  let cluster = Cluster.create ~clock specs in
  let servers = List.init 2 (fun i -> Netram.Server.create (Cluster.node cluster (i + 1))) in
  let clients = List.map (fun server -> Netram.Client.create ~cluster ~local:0 ~server) servers in
  let t = P.init_replicated ~config clients in
  let ckpt = Netram.Server.create (Cluster.node cluster 3) in
  { clock; cluster; servers; ckpt; t }

let with_db ?config ?(size = 8192) () =
  let b = bed ?config () in
  let seg = P.malloc b.t ~name:"db" ~size in
  P.write b.t seg ~off:0 (Bytes.init size (fun i -> Char.chr (i land 0xff)));
  P.init_remote_db b.t;
  (b, seg)

let commit_fill b seg ~off fill =
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off ~len:128;
  P.write b.t seg ~off (Bytes.make 128 fill);
  P.commit txn

(* The richest deterministic story the stack tells: group commits,
   checkpoints (full take, then a fuzzy start/step/finalize cut across
   commits), a mirror crash mid-run, a spare recruited, a final flush.
   Used both for the byte-identity check and the zero-alert check. *)
let full_story ?forensics () =
  let config = { P.default_config with group_commit = 2 } in
  let b, seg = with_db ~config () in
  Option.iter (fun f -> F.attach f b.t) forensics;
  let attached = Sci.Nic.counters (Cluster.nic b.cluster) in
  P.Checkpoint.set_ram_target b.t ~server:b.ckpt;
  for i = 0 to 5 do
    commit_fill b seg ~off:(256 * i) (Char.chr (Char.code 'a' + i))
  done;
  P.flush b.t;
  ignore (P.Checkpoint.take b.t);
  (* Kill mirror1 (node 2): the next plan against it raises, the engine
     drops it and continues degraded. *)
  ignore (Cluster.crash_node b.cluster 2 Cluster.Failure.Hardware_error);
  for i = 0 to 3 do
    commit_fill b seg ~off:(2048 + (256 * i)) (Char.chr (Char.code 'p' + i))
  done;
  P.flush b.t;
  (* Recruit the spare (node 4): resync traffic, then more commits
     interleaved with an open fuzzy checkpoint. *)
  P.attach_mirror b.t ~server:(Netram.Server.create (Cluster.node b.cluster 4));
  P.Checkpoint.start b.t;
  commit_fill b seg ~off:4096 'x';
  ignore (P.Checkpoint.step b.t ~budget:4096);
  commit_fill b seg ~off:4352 'y';
  P.flush b.t;
  ignore (P.Checkpoint.finalize b.t);
  (Clock.now b.clock, Sci.Nic.counters (Cluster.nic b.cluster), P.stats b.t, attached)

(* Packets and bytes the SCI pieces among [events] carry. *)
let piece_totals events =
  List.fold_left
    (fun (pkts, bytes) (e : Trace.Event.t) ->
      if e.cat <> "sci" then (pkts, bytes)
      else
        let n k = int_of_string (List.assoc k e.args) in
        (pkts + n "full64" + n "part16", bytes + n "bytes"))
    (0, 0) events

(* ------------------------------------------------------------------ *)

let test_ring_capacities () =
  let s = Trace.Sink.memory ~capacity:2 () in
  for i = 0 to 4 do
    Trace.Sink.span s ~cat:"txn" ~name:(string_of_int i) ~start:i ~stop:(i + 1)
  done;
  for i = 0 to 9 do
    Trace.Sink.instant s ~cat:"sci" ~name:"piece" ~at:i
  done;
  check_int "span ring bounded" 2 (List.length (Trace.Sink.spans s));
  check_int "event ring bounded" 2 (List.length (Trace.Sink.events s));
  check_int "span drops counted separately" 3 (Trace.Sink.dropped_spans s);
  check_int "event drops counted separately" 8 (Trace.Sink.dropped_events s);
  (* Newest survive, oldest drop. *)
  (match Trace.Sink.spans s with
  | [ a; b ] ->
      check Alcotest.string "oldest surviving span" "3" a.Trace.Span.name;
      check Alcotest.string "newest span" "4" b.Trace.Span.name
  | _ -> Alcotest.fail "expected 2 spans");
  let tee = Trace.Sink.tee [ Trace.Sink.noop; s ] in
  check_int "tee reads through to the ring" 2 (List.length (Trace.Sink.spans tee))

let test_byte_identity () =
  let clock_off, nic_off, stats_off, _ = full_story () in
  let f = F.create () in
  let clock_on, nic_on, stats_on, (at : Sci.Nic.counters) = full_story ~forensics:f () in
  check_int "final clock identical" clock_off clock_on;
  check_bool "NIC counters identical" true (nic_off = nic_on);
  check_bool "engine stats identical" true (stats_off = stats_on);
  (* The recorder saw every packet and byte the NIC moved after it was
     attached, as pieces. *)
  let pkts, bytes = piece_totals (Trace.Sink.events (F.sink f)) in
  check_int "pieces carry every packet"
    (nic_on.packets64 + nic_on.packets16 - at.packets64 - at.packets16)
    pkts;
  check_int "pieces carry every byte"
    (nic_on.bytes_written + nic_on.bytes_read - at.bytes_written - at.bytes_read)
    bytes

let test_zero_alerts_full_story () =
  let f = F.create () in
  ignore (full_story ~forensics:f ());
  check_int "monitor silent on a legal run" 0 (F.alert_count f);
  check_int "monitor consumed the recorded stream" (Trace.Sink.event_count (F.sink f))
    (M.events_seen (F.monitor f))

let test_zero_alerts_crash_sweep () =
  (* Primary-victim sweep with the recorder attached at every point:
     every crash/recovery pair must stream through the monitor without
     one alert — and the sweep's own oracle still holds. *)
  let dir = "forensics-sweep-out" in
  let scenario = Harness.Crashpoint.commit_scenario ~mirrors:1 ~ranges:2 () in
  let r = Harness.Crashpoint.sweep ~postmortem:dir scenario in
  check_bool "sweep completed" true (r.Harness.Crashpoint.total_packets > 0);
  check_bool "no bundle dumped on a clean sweep" true (not (Sys.file_exists dir));
  let r2 = Harness.Crashpoint.sweep ~victim:(Harness.Crashpoint.Mirror 0) ~postmortem:dir scenario in
  check_bool "mirror sweep clean too" true (r2.Harness.Crashpoint.total_packets > 0);
  check_bool "still no bundle" true (not (Sys.file_exists dir))

let test_zero_alerts_churn () =
  let params =
    {
      Harness.Churn.default_params with
      Harness.Churn.duration = Time.ms 20.0;
      checkpoint_interval = Some (Time.ms 4.0);
    }
  in
  let dir = "forensics-churn-out" in
  let r = Harness.Churn.run ~params ~postmortem:dir () in
  Harness.Churn.check r;
  check_bool "churn committed work" true (r.Harness.Churn.committed > 0);
  check_bool "no bundle dumped on a clean churn run" true (not (Sys.file_exists dir))

(* ------------------------------------------------------------------ *)
(* Seeded violations: replay deliberately corrupted streams through
   the monitor's test hook and demand the right typed alert. *)

let ev ?(at = 10) args = { Trace.Event.name = "piece"; cat = "sci"; at; args }

let convoy_pkt ?(node = 1) ?(at = 10) ~convoy ~tag ?epoch ~batch () =
  ev ~at
    ([
       ("op", "flush_convoy");
       ("node", string_of_int node);
       ("convoy", convoy);
       ("tag", tag);
       ("batch", batch);
     ]
    @ match epoch with Some e -> [ ("epoch", Int64.to_string e) ] | None -> [])

let seeded label feed pick =
  let m = M.create () in
  List.iter (M.event m) feed;
  match M.alerts m with
  | [] -> Alcotest.failf "%s: violation not caught" label
  | a :: _ ->
      check_bool (label ^ ": right alert type") true (pick a.M.violation);
      check_int (label ^ ": exactly one alert") 1 (M.alert_count m)

let test_mutation_fence_not_last () =
  seeded "fence shipped early"
    [
      convoy_pkt ~at:1 ~convoy:"c1" ~tag:"undo" ~batch:"1+2" ();
      convoy_pkt ~at:2 ~convoy:"c1" ~tag:"fence" ~epoch:2L ~batch:"1+2" ();
      (* the mutation: data follows its own unit's fence *)
      convoy_pkt ~at:3 ~convoy:"c1" ~tag:"data" ~batch:"1+2" ();
    ]
    (function M.Fence_not_last { node = 1; convoy = "c1"; _ } -> true | _ -> false)

let test_mutation_epoch_regressed () =
  seeded "non-monotone fence epoch"
    [
      convoy_pkt ~at:1 ~convoy:"c1" ~tag:"fence" ~epoch:5L ~batch:"1" ();
      convoy_pkt ~at:2 ~convoy:"c2" ~tag:"fence" ~epoch:4L ~batch:"2" ();
    ]
    (function M.Epoch_regressed { node = 1; prev = 5L; next = 4L; _ } -> true | _ -> false)

let test_mutation_undo_after_data_convoy () =
  seeded "undo chunk after data in one convoy"
    [
      convoy_pkt ~at:1 ~convoy:"c1" ~tag:"data" ~batch:"3" ();
      convoy_pkt ~at:2 ~convoy:"c1" ~tag:"undo" ~batch:"3" ();
    ]
    (function M.Undo_after_data { txn = "3"; node = 1; _ } -> true | _ -> false)

let test_mutation_undo_after_data_eager () =
  seeded "eager undo push after the txn's commit data"
    [
      ev ~at:1
        [ ("op", "commit_propagate"); ("node", "1"); ("convoy", "t7"); ("txn", "7") ];
      ev ~at:2
        [ ("op", "commit_fence"); ("node", "1"); ("convoy", "t7"); ("txn", "7"); ("epoch", "2") ];
      ev ~at:3 [ ("op", "remote_undo"); ("node", "1"); ("txn", "7") ];
    ]
    (function M.Undo_after_data { txn = "7"; node = 1; _ } -> true | _ -> false)

let test_mutation_split_convoy () =
  seeded "two convoys interleaved on one node"
    [
      convoy_pkt ~at:1 ~convoy:"c1" ~tag:"data" ~batch:"1" ();
      convoy_pkt ~at:2 ~convoy:"c2" ~tag:"data" ~batch:"2" ();
    ]
    (function
      | M.Convoy_interleaved { node = 1; convoy = "c1"; intruder = "c2"; _ } -> true | _ -> false)

let test_mutation_checkpoint_cut_inside_convoy () =
  let m = M.create () in
  M.event m (convoy_pkt ~at:1 ~convoy:"c1" ~tag:"data" ~batch:"1" ());
  M.event m { Trace.Event.name = "cut"; cat = "ckpt"; at = 2; args = [] };
  (match M.alerts m with
  | { M.violation = M.Checkpoint_split_convoy { node = 1; convoy = "c1"; _ }; _ } :: _ -> ()
  | _ -> Alcotest.fail "checkpoint cut inside an open convoy not caught");
  (* And the legal orderings around it stay silent. *)
  let m2 = M.create () in
  M.event m2 (convoy_pkt ~at:1 ~convoy:"c1" ~tag:"data" ~batch:"1" ());
  M.event m2 (convoy_pkt ~at:2 ~convoy:"c1" ~tag:"fence" ~epoch:2L ~batch:"1" ());
  M.event m2 { Trace.Event.name = "cut"; cat = "ckpt"; at = 3; args = [] };
  check_int "cut between units is legal" 0 (M.alert_count m2)

(* A mirror loss forgives an interrupted unit: no alert when the next
   traffic to that node starts a fresh unit, or when a cut follows. *)
let test_mirror_loss_forgives_open_unit () =
  let m = M.create () in
  M.event m (convoy_pkt ~at:1 ~convoy:"c1" ~tag:"data" ~batch:"1" ());
  M.event m { Trace.Event.name = "dropped"; cat = "mirror"; at = 2; args = [ ("node", "1") ] };
  M.event m { Trace.Event.name = "cut"; cat = "ckpt"; at = 3; args = [] };
  M.event m (convoy_pkt ~at:4 ~convoy:"c2" ~tag:"data" ~batch:"2" ());
  M.event m (convoy_pkt ~at:5 ~convoy:"c2" ~tag:"fence" ~epoch:3L ~batch:"2" ());
  check_int "interruption by mirror loss is not a violation" 0 (M.alert_count m)

(* ------------------------------------------------------------------ *)

let test_causal_timeline () =
  let b, seg = with_db () in
  let f = F.create () in
  F.attach f b.t;
  commit_fill b seg ~off:0 'q';
  commit_fill b seg ~off:256 'r';
  let timelines = F.timelines f in
  check_bool "one timeline per transaction" true (List.length timelines >= 2);
  match Trace.Causal.find timelines ~txn:"1" with
  | None -> Alcotest.fail "no timeline for txn 1"
  | Some c ->
      let on_node n (h : Trace.Causal.hop) = h.Trace.Causal.h_node = Some n in
      let what w (h : Trace.Causal.hop) = h.Trace.Causal.h_what = w in
      let hops = c.Trace.Causal.c_hops in
      (* The cross-node story: undo then data then fence, on BOTH
         mirror nodes. *)
      List.iter
        (fun node ->
          List.iter
            (fun w ->
              check_bool
                (Printf.sprintf "txn 1 %s on node %d" w node)
                true
                (List.exists (fun h -> on_node node h && what w h) hops))
            [ "pkt/remote_undo"; "pkt/commit_propagate"; "pkt/commit_fence" ])
        [ 1; 2 ];
      (* Each SCI piece of txn 1 is one hop carrying its packets. *)
      let pieces =
        List.filter
          (fun (e : Trace.Event.t) -> e.cat = "sci" && List.assoc_opt "txn" e.args = Some "1")
          (Trace.Sink.events (F.sink f))
      in
      let piece_hops = List.filter (fun (h : Trace.Causal.hop) -> h.Trace.Causal.h_pkts > 0) hops in
      check_int "one hop per piece" (List.length pieces) (List.length piece_hops);
      check_int "hops carry the pieces' packets" (fst (piece_totals pieces))
        (List.fold_left (fun acc (h : Trace.Causal.hop) -> acc + h.Trace.Causal.h_pkts) 0 piece_hops);
      check_bool "a multi-packet piece is one hop" true
        (List.exists (fun (h : Trace.Causal.hop) -> h.Trace.Causal.h_pkts > 1) hops);
      (* Primary-side spans join the same story. *)
      check_bool "primary-side commit span present" true
        (List.exists (fun h -> what "txn/commit" h && h.Trace.Causal.h_node = None) hops);
      (* Hops are time-ordered. *)
      let rec ordered = function
        | (a : Trace.Causal.hop) :: (b : Trace.Causal.hop) :: rest ->
            a.Trace.Causal.h_start <= b.Trace.Causal.h_start && ordered (b :: rest)
        | _ -> true
      in
      check_bool "hops ordered by virtual time" true (ordered hops)

let test_convoy_timeline () =
  let config = { P.default_config with group_commit = 3 } in
  let b, seg = with_db ~config () in
  let f = F.create () in
  F.attach f b.t;
  commit_fill b seg ~off:0 'a';
  commit_fill b seg ~off:256 'b';
  commit_fill b seg ~off:512 'c';
  P.flush b.t;
  let timelines = F.timelines f in
  (* Every batched transaction's timeline carries the convoy hops. *)
  List.iter
    (fun txn ->
      match Trace.Causal.find timelines ~txn with
      | None -> Alcotest.failf "no timeline for batched txn %s" txn
      | Some c ->
          check_bool
            (Printf.sprintf "txn %s rode a convoy" txn)
            true
            (List.exists
               (fun (h : Trace.Causal.hop) -> h.Trace.Causal.h_what = "pkt/flush_convoy")
               c.Trace.Causal.c_hops))
    [ "1"; "2"; "3" ];
  check_int "convoys are legal" 0 (F.alert_count f)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_postmortem_bundle () =
  let b, seg = with_db () in
  let f = F.create () in
  F.attach f b.t;
  commit_fill b seg ~off:0 'q';
  commit_fill b seg ~off:256 'r';
  (* Force a failure: seed a protocol violation naming a REAL
     transaction, as a failing oracle would. *)
  M.event (F.monitor f)
    (ev ~at:(Clock.now b.clock) [ ("op", "remote_undo"); ("node", "1"); ("txn", "2") ]);
  check_int "seeded violation alerted" 1 (F.alert_count f);
  let dir = "forensics-bundle-out" in
  if Sys.file_exists dir then rm_rf dir;
  let out = F.dump f ~dir ~cause:"test: seeded undo-after-data" ~stats:(P.stats b.t) () in
  check Alcotest.string "dump returns the dir" dir out;
  let slurp name =
    let ic = open_in (Filename.concat dir name) in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* Header: cause, ring occupancy, SEPARATE drop counters, alerts. *)
  let header = Harness.Json.parse_exn (slurp "header.json") in
  let mem k = Harness.Json.member_exn k header in
  check Alcotest.string "cause recorded" "test: seeded undo-after-data"
    (Harness.Json.to_string (mem "cause"));
  check_int "no span drops at this size" 0 (Harness.Json.to_int (mem "dropped_spans"));
  check_int "no event drops at this size" 0 (Harness.Json.to_int (mem "dropped_events"));
  (match Harness.Json.to_list (mem "alerts") with
  | [ a ] ->
      check_bool "alert rendered" true (contains (Harness.Json.to_string a) "undo for txn 2")
  | _ -> Alcotest.fail "expected exactly one alert in the header");
  (* The Perfetto trace and the stats snapshot parse. *)
  check_bool "trace.json parses" true
    (match Harness.Json.parse (slurp "trace.json") with Ok _ -> true | Error _ -> false);
  check_bool "stats.json parses" true
    (match Harness.Json.parse (slurp "stats.json") with Ok _ -> true | Error _ -> false);
  (* The causal timeline contains the offending transaction's
     cross-node spans: its packets on both mirrors. *)
  let causal = slurp "causal.txt" in
  check_bool "offending txn present" true (contains causal "txn 2:");
  check_bool "cross-node undo hop" true (contains causal "pkt/remote_undo");
  check_bool "cross-node fence hop" true (contains causal "pkt/commit_fence");
  check_bool "node 1 visited" true (contains causal "node 1");
  check_bool "node 2 visited" true (contains causal "node 2");
  rm_rf dir

let suite =
  [
    ("ring capacities and drop accounting", `Quick, test_ring_capacities);
    ("forensics leave the run byte-identical", `Quick, test_byte_identity);
    ("monitor silent across the full story", `Quick, test_zero_alerts_full_story);
    ("monitor silent across crash sweeps", `Slow, test_zero_alerts_crash_sweep);
    ("monitor silent under churn", `Slow, test_zero_alerts_churn);
    ("mutation: fence shipped early", `Quick, test_mutation_fence_not_last);
    ("mutation: non-monotone epoch", `Quick, test_mutation_epoch_regressed);
    ("mutation: undo after data (convoy)", `Quick, test_mutation_undo_after_data_convoy);
    ("mutation: undo after data (eager)", `Quick, test_mutation_undo_after_data_eager);
    ("mutation: interleaved convoys", `Quick, test_mutation_split_convoy);
    ("mutation: cut splits a convoy", `Quick, test_mutation_checkpoint_cut_inside_convoy);
    ("mirror loss forgives an open unit", `Quick, test_mirror_loss_forgives_open_unit);
    ("causal timeline: eager cross-node story", `Quick, test_causal_timeline);
    ("causal timeline: convoy batches", `Quick, test_convoy_timeline);
    ("post-mortem bundle", `Quick, test_postmortem_bundle);
  ]
