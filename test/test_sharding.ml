(* The sharded multi-primary cluster: shard-map/phase units, routing
   and virtual-time parallelism, cross-shard transactions through the
   STAR-style single-master phases, the monitor's cross-shard rule,
   supervisor isolation across shards, shard failover, and the
   crash-point sweeps at shard-commit and phase-fence boundaries. *)

open Sim
module P = Perseas
module SM = Cluster.Shard_map
module Phase = Cluster.Phase
module S = Harness.Sharding
module CP = Harness.Crashpoint

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Shard map *)

let test_map_hash () =
  let m = SM.create ~shards:4 () in
  let hits = Array.make 4 0 in
  for key = 0 to 4_000 do
    let s = SM.owner m ~key in
    check_bool "in range" true (s >= 0 && s < 4);
    check_int "stable" s (SM.owner m ~key);
    hits.(s) <- hits.(s) + 1
  done;
  Array.iteri (fun i n -> check_bool (Printf.sprintf "shard %d loaded" i) true (n > 500)) hits

let test_map_range () =
  let m = SM.create ~strategy:(SM.Range { span = 1000 }) ~shards:4 () in
  check_int "first key" 0 (SM.owner m ~key:0);
  check_int "last key" 3 (SM.owner m ~key:999);
  (* local indices are dense per shard: 0.. within each owner *)
  for key = 0 to 999 do
    let li = SM.local_index m ~key in
    check_bool "local in capacity" true (li >= 0 && li < SM.capacity m ~span:1000)
  done;
  check_int "monotone split" 1 (SM.owner m ~key:250)

let test_phase () =
  let p = Phase.create ~interval:(Time.us 100.) () in
  check_bool "starts partitioned" true (Phase.kind p = Phase.Partitioned);
  check_bool "not due with empty backlog" false (Phase.due p ~now:(Time.us 500.));
  Phase.enqueue p;
  check_bool "not due before interval" false (Phase.due p ~now:(Time.us 50.));
  check_bool "due" true (Phase.due p ~now:(Time.us 150.));
  Phase.begin_single_master p ~at:(Time.us 150.);
  check_bool "single master" true (Phase.kind p = Phase.Single_master);
  Phase.end_single_master p ~drained:1 ~at:(Time.us 160.);
  check_int "backlog drained" 0 (Phase.backlog p);
  check_int "one switch" 1 (Phase.single_master_phases p);
  check_int "phase epoch" 2 (Phase.epoch p)

(* ------------------------------------------------------------------ *)
(* Routing and parallelism *)

let small = Workloads.Debit_credit.small_params

let test_routing () =
  let bed = S.make_bed ~shards:4 () in
  let l = S.load_debit_credit ~params:small bed in
  let seen = Array.make 4 0 in
  for key = 0 to 199 do
    let s =
      P.Shard.submit bed.S.router ~key (fun db txn ->
          let d = S.W.draw l.S.l_dbs.(P.Shard.owner bed.S.router ~key) l.S.l_rngs.(0) in
          ignore db;
          S.W.declare l.S.l_dbs.(P.Shard.owner bed.S.router ~key) txn d;
          S.W.apply l.S.l_dbs.(P.Shard.owner bed.S.router ~key) d)
    in
    check_int "routed to owner" (P.Shard.owner bed.S.router ~key) s;
    seen.(s) <- seen.(s) + 1
  done;
  check_int "all routed" 200 (Array.fold_left ( + ) 0 seen);
  check_bool "spread" true (Array.for_all (fun n -> n > 0) seen);
  check_bool "consistent" true (S.consistent l)

(* Virtual time: the same single-shard work on 4 shards must finish in
   well under the 1-shard time — shards commit on independent clocks. *)
let test_parallel_speedup () =
  let elapsed shards =
    let bed = S.make_bed ~shards () in
    let l = S.load_debit_credit ~params:small ~clients:2 bed in
    (* Setup (init_remote_db per shard) costs the same on every shard;
       measure the commit window only, from the quiesced frontier. *)
    let t0 = P.Shard.now bed.S.router in
    ignore (S.run l ~total:200 ());
    Time.to_us (P.Shard.now bed.S.router - t0)
  in
  let t1 = elapsed 1 and t4 = elapsed 4 in
  check_bool
    (Printf.sprintf "4 shards at least 3x faster (1 shard: %.0fus, 4 shards: %.0fus)" t1 t4)
    true
    (t4 < t1 /. 3.)

(* ------------------------------------------------------------------ *)
(* Cross-shard transactions *)

let test_cross_shard () =
  let bed = S.make_bed ~shards:2 ~interval:(Time.us 200.) () in
  let monitors =
    Array.init 2 (fun s ->
        let m = Trace.Monitor.create () in
        P.set_sink (P.Shard.db bed.S.router s) (Trace.Monitor.sink m);
        m)
  in
  let l = S.load_debit_credit ~params:small bed in
  let stats = S.run l ~total:300 ~cross_every:5 () in
  check_bool "cross transactions committed" true (stats.Harness.Multi_client.ss_cross_committed > 0);
  check_bool "phase switches happened" true (stats.Harness.Multi_client.ss_switches > 0);
  check_int "backlog drained" 0 (P.Shard.backlog bed.S.router);
  check_bool "back in partitioned phase" true
    (Phase.kind (P.Shard.phase bed.S.router) = Phase.Partitioned);
  check_bool "consistent" true (S.consistent l);
  Array.iteri
    (fun s m ->
      check_int (Printf.sprintf "monitor %d silent" s) 0 (Trace.Monitor.alert_count m))
    monitors;
  (* The router's own bookkeeping matches the driver's. *)
  let rs = P.Shard.stats bed.S.router in
  check_int "router cross count" stats.Harness.Multi_client.ss_cross_committed
    rs.P.Shard.cross_committed

(* The transfers are zero-sum across shards: the global account total
   is the sum of per-shard single-shard deltas only, and each shard's
   own TPC-B invariant already pins those — so the cross pieces must
   cancel exactly. *)
let test_cross_zero_sum () =
  let bed = S.make_bed ~shards:3 () in
  let l = S.load_debit_credit ~params:small bed in
  ignore (S.run l ~total:150 ~cross_every:3 ());
  check_bool "every shard consistent" true (S.consistent l)

(* Undeclared shard access from a cross body must be rejected. *)
let test_cross_undeclared () =
  let bed = S.make_bed ~shards:2 () in
  let l = S.load_debit_credit ~params:small bed in
  ignore l;
  (* submit_cross may tick straight into a drain, so the rejection can
     surface from either call. *)
  match
    ignore (P.Shard.submit_cross bed.S.router ~shards:[ 0 ] (fun get -> ignore (get 1)));
    ignore (P.Shard.drain bed.S.router)
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "undeclared shard access not rejected"

(* ------------------------------------------------------------------ *)
(* Monitor: the STAR rule *)

let instant ~name ~args = { Trace.Event.name; cat = "cluster"; at = Time.us 1.; args }

let test_monitor_cross_rule () =
  (* A cross commit with no phase declaration: default phase is
     partitioned, so it must alert. *)
  let m = Trace.Monitor.create () in
  Trace.Monitor.event m (instant ~name:"cross_commit" ~args:[ ("xid", "7"); ("shards", "0+1") ]);
  check_int "alert in default phase" 1 (Trace.Monitor.alert_count m);
  (* Declared single-master: silent; back to partitioned: alerts again. *)
  let m = Trace.Monitor.create () in
  Trace.Monitor.event m (instant ~name:"phase_switch" ~args:[ ("phase", "single_master") ]);
  Trace.Monitor.event m (instant ~name:"cross_commit" ~args:[ ("xid", "8") ]);
  check_int "silent in single-master" 0 (Trace.Monitor.alert_count m);
  Trace.Monitor.event m (instant ~name:"phase_switch" ~args:[ ("phase", "partitioned") ]);
  Trace.Monitor.event m (instant ~name:"cross_commit" ~args:[ ("xid", "9") ]);
  check_int "alert after switch back" 1 (Trace.Monitor.alert_count m);
  match (List.hd (Trace.Monitor.alerts m)).Trace.Monitor.violation with
  | Trace.Monitor.Cross_shard_in_partitioned { xid; _ } -> check Alcotest.string "xid" "9" xid
  | v -> Alcotest.failf "wrong violation: %s" (Trace.Monitor.describe v)

(* ------------------------------------------------------------------ *)
(* Satellite: healing one shard's mirror set must not block the rest *)

let test_heal_does_not_block_other_shards () =
  let bed = S.make_bed ~shards:3 () in
  let l = S.load_debit_credit ~params:small ~clients:2 bed in
  let healing = 2 in
  let hb = bed.S.shard_beds.(healing) in
  let t_h = P.Shard.db bed.S.router healing in
  (* Kill shard 2's only mirror and hand its supervisor the shard's
     spare. *)
  let victim_node = (List.hd (P.mirrors t_h)).P.node_id in
  ignore (Cluster.crash_node hb.S.sb_cluster victim_node Cluster.Failure.Hardware_error);
  let sup =
    P.Supervisor.create
      ~spares:[ Netram.Server.create (Cluster.node hb.S.sb_cluster hb.S.sb_spare) ]
      t_h
  in
  (* Shards 0 and 1 keep committing while shard 2 detects the loss and
     heals; supervisor ticks advance only shard 2's clock.  The loss is
     probe-discovered, so degraded goes true a few ticks in — run at
     least until the probe fired and the factor is back at target. *)
  let committed = ref 0 in
  let rng = Rng.create 5 in
  let clock0_cost = ref Time.zero in
  let base0 = Clock.now bed.S.shard_beds.(0).S.sb_clock in
  let rounds = ref 0 in
  let was_degraded = ref false in
  while (!rounds < 20 || P.Supervisor.degraded sup) && !rounds < 2_000 do
    incr rounds;
    List.iter
      (fun s ->
        let t0 = Clock.now bed.S.shard_beds.(s).S.sb_clock in
        S.W.transaction l.S.l_dbs.(s) rng;
        incr committed;
        if s = 0 then clock0_cost := !clock0_cost + (Clock.now bed.S.shard_beds.(s).S.sb_clock - t0))
      [ 0; 1 ];
    Clock.advance_to hb.S.sb_clock (Clock.now hb.S.sb_clock + Time.us 10.);
    P.Supervisor.tick sup;
    was_degraded := !was_degraded || P.Supervisor.degraded sup
  done;
  ignore !was_degraded;
  (* Detection and recruitment may land inside one tick, so the event
     log — not a sampled [degraded] — is the detection witness. *)
  let events = P.Supervisor.events sup in
  check_bool "loss was detected" true
    (List.exists (function P.Supervisor.Mirror_lost _ -> true | _ -> false) events);
  check_bool "spare was recruited" true
    (List.exists (function P.Supervisor.Recruited _ -> true | _ -> false) events);
  check_bool "shard 2 healed" false (P.Supervisor.degraded sup);
  check_bool "shards 0/1 committed throughout" true (!committed >= 40);
  check_int "shard 2 mirror set clean" 0 (List.length (P.verify_mirrors t_h));
  (* Isolation: shard 0 paid only for its own commits — its clock never
     advanced while shard 2 was resyncing. *)
  check_bool "shard 0 clock untouched by the heal" true
    (Clock.now bed.S.shard_beds.(0).S.sb_clock - base0 = !clock0_cost);
  check_bool "consistent" true (S.consistent l)

(* ------------------------------------------------------------------ *)
(* Failover oracle and crash-point sweeps *)

let test_failover () =
  let r = S.failover ~shards:2 ~victim:0 () in
  check_bool "committed data preserved" true r.S.f_data_preserved;
  check_bool "consistent before and after" true r.S.f_consistent;
  check_int "no monitor alerts" 0 r.S.f_alerts;
  check_bool "cross traffic flowed" true
    (r.S.f_before.Harness.Multi_client.ss_cross_committed > 0
    && r.S.f_after.Harness.Multi_client.ss_cross_committed > 0)

(* The CLI's default bank (10 branches split four ways: a 20 MB
   accounts table per shard) does not fit 16 MB nodes; the failover bed
   must size its nodes from the bank it is given. *)
let test_failover_cli_params () =
  let params = Harness.Experiments.sharding_params ~shards:4 () in
  let r = S.failover ~shards:2 ~params () in
  check_bool "committed data preserved" true r.S.f_data_preserved;
  check_bool "consistent before and after" true r.S.f_consistent;
  check_int "no monitor alerts" 0 r.S.f_alerts

let run_sweep scenario =
  let r = CP.sweep scenario in
  check_bool "swept some packets" true (r.CP.total_packets > 0);
  check_int "every point classified" (r.CP.total_packets + 1) (List.length r.CP.points);
  check_bool "old images seen" true (r.CP.old_images > 0);
  check_bool "new images seen" true (r.CP.new_images > 0);
  r

let test_shard_commit_sweep () = ignore (run_sweep (CP.shard_commit_scenario ()))

let test_shard_fence_sweep () =
  let r = run_sweep (CP.shard_fence_scenario ()) in
  (* The fence scenario declares the post-convoy cut as a checkpoint
     image; some crash point must land there. *)
  check_bool "post-convoy image reachable" true
    (List.exists (fun p -> p.CP.image = CP.Checkpoint 0) r.CP.points)

let test_shard_mirror_sweep () =
  (* Mirror death during the victim shard's commit: the shard finishes
     degraded or recovers onto its spare; never a torn image. *)
  ignore (CP.sweep ~victim:(CP.Mirror 0) (CP.shard_commit_scenario ()))

(* ------------------------------------------------------------------ *)
(* The measured cell *)

let test_run_cell () =
  let cell = S.run_cell ~params:small ~warmup:100 ~total:400 ~shards:2 ~cross_per_100:5 () in
  check_bool "tps positive" true (cell.S.c_tps > 0.);
  check_bool "cross mix present" true (cell.S.c_cross > 0);
  check_bool "packets counted" true (cell.S.c_pkts_per_txn > 0.);
  check_int "asked-for singles" 400 cell.S.c_committed

let suite =
  [
    Alcotest.test_case "shard map: hash" `Quick test_map_hash;
    Alcotest.test_case "shard map: range" `Quick test_map_range;
    Alcotest.test_case "phase controller" `Quick test_phase;
    Alcotest.test_case "routing" `Quick test_routing;
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "cross-shard drain" `Quick test_cross_shard;
    Alcotest.test_case "cross-shard zero sum" `Quick test_cross_zero_sum;
    Alcotest.test_case "cross body undeclared shard" `Quick test_cross_undeclared;
    Alcotest.test_case "monitor: STAR rule" `Quick test_monitor_cross_rule;
    Alcotest.test_case "heal does not block other shards" `Quick test_heal_does_not_block_other_shards;
    Alcotest.test_case "shard failover oracle" `Quick test_failover;
    Alcotest.test_case "shard failover at the CLI's default bank" `Quick test_failover_cli_params;
    Alcotest.test_case "crashpoint: shard commit" `Quick test_shard_commit_sweep;
    Alcotest.test_case "crashpoint: phase fence" `Quick test_shard_fence_sweep;
    Alcotest.test_case "crashpoint: shard mirror death" `Quick test_shard_mirror_sweep;
    Alcotest.test_case "measured cell" `Quick test_run_cell;
  ]
