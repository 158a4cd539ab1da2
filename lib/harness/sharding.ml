(* Harness for the sharded multi-primary cluster (Perseas.Shard): beds
   with one replicated PERSEAS world per shard, a debit-credit loader
   that splits the bank across the shards, a measured cell runner for
   the scaling experiment, and the shard-failover extension of the
   zero-committed-data-loss oracle. *)

open Sim
module P = Perseas
module W = Workloads.Debit_credit.Make (P.Engine)
module DC = Workloads.Debit_credit

(* ------------------------------------------------------------------ *)
(* Beds *)

type shard_bed = {
  sb_clock : Clock.t;
  sb_cluster : Cluster.t;
  sb_servers : Netram.Server.t list;
  sb_spare : int;  (** Node id of the cold spare (own power supply). *)
}

type bed = { router : P.Shard.t; shard_beds : shard_bed array; mirrors : int }

(* Each shard is a full PERSEAS world of its own: a {!Testbed.make}
   cluster with a cold spare, on the shard's own clock.  Independent
   clocks are the point — commits on shard 0 leave shard 1's virtual
   time untouched, so a round of commits across N shards costs one
   commit's worth of virtual time, not N. *)
let make_bed ?config ?strategy ?interval ?dram_mb ?(mirrors = 1) ~shards () =
  if shards < 1 then invalid_arg "Sharding.make_bed: at least one shard";
  let beds = Array.init shards (fun _ -> Testbed.make ?config ?dram_mb ~spare:true ~mirrors ()) in
  let shard_beds =
    Array.map
      (fun (b : Testbed.bed) ->
        { sb_clock = b.clock; sb_cluster = b.cluster; sb_servers = b.servers; sb_spare = mirrors + 1 })
      beds
  in
  let dbs = Array.map (fun (b : Testbed.bed) -> b.perseas) beds in
  { router = P.Shard.create ?strategy ?interval dbs; shard_beds; mirrors }

let total_packets bed =
  Array.fold_left
    (fun acc b ->
      let c = Sci.Nic.counters (Cluster.nic b.sb_cluster) in
      acc + c.Sci.Nic.packets64 + c.Sci.Nic.packets16)
    0 bed.shard_beds

let reset_packets bed =
  Array.iter (fun b -> Sci.Nic.reset_counters (Cluster.nic b.sb_cluster)) bed.shard_beds

(* ------------------------------------------------------------------ *)
(* Debit-credit over the shards *)

type loaded = {
  l_bed : bed;
  l_dbs : W.db array;
  l_rngs : Rng.t array; (* one stream per shard, split from the seed *)
  l_route : Rng.t; (* picks the shards of a cross-shard transfer *)
  l_clients : int;
}

let load_debit_credit ?(params = DC.small_params) ?(clients = 4) ?(seed = 42) bed =
  let shards = P.Shard.shards bed.router in
  let dbs = Array.init shards (fun s -> W.setup (P.Shard.db bed.router s) ~params) in
  let root = Rng.create seed in
  let rngs = Array.init shards (fun _ -> Rng.split root) in
  { l_bed = bed; l_dbs = dbs; l_rngs = rngs; l_route = Rng.split root; l_clients = clients }

let spec l =
  {
    Multi_client.sh_prepare = (fun ~shard ~client:_ -> W.draw l.l_dbs.(shard) l.l_rngs.(shard));
    sh_declare = (fun ~shard txn d -> W.declare l.l_dbs.(shard) txn d);
    sh_apply = (fun ~shard d -> W.apply l.l_dbs.(shard) d);
  }

(* One cross-shard transfer: a debit-credit transaction on each of two
   distinct shards, the second delta negated so the money provably
   moves between banks (each shard's own TPC-B invariant holds either
   way — every piece applies one delta to its account, teller and
   branch alike). *)
let cross_draw l () =
  let shards = Array.length l.l_dbs in
  if shards < 2 then []
  else begin
    let a = Rng.int l.l_route shards in
    let b = (a + 1 + Rng.int l.l_route (shards - 1)) mod shards in
    let da = W.draw l.l_dbs.(a) l.l_rngs.(a) in
    let db = W.draw l.l_dbs.(b) l.l_rngs.(b) in
    [ (a, da); (b, { db with W.delta = Int64.neg da.W.delta }) ]
  end

let run l ~total ?(cross_every = 0) () =
  Multi_client.run_sharded l.l_bed.router ~clients:l.l_clients ~total ~cross_every
    ~cross:(cross_draw l) (spec l)

let consistent l = Array.for_all W.consistent l.l_dbs
let checksum l ~shard = W.checksum l.l_dbs.(shard)

(* Point the router and the workload at a freshly recovered engine for
   [shard] — the sharded counterpart of what the churn harness does
   after [recover_replicated]. *)
let adopt l ~shard t2 =
  P.Shard.replace l.l_bed.router ~shard t2;
  l.l_dbs.(shard) <- W.rebind l.l_dbs.(shard) t2

(* ------------------------------------------------------------------ *)
(* Measured cell for the scaling experiment *)

(* DRAM per node for one shard's bank under [config]: its tables and
   undo log, plus a megabyte for the metadata copies and allocation
   alignment.  Every node of a shard holds one copy of each. *)
let dram_mb_for ~config (p : DC.params) =
  let mb = 1024 * 1024 in
  let table_bytes =
    (p.DC.scale * (p.DC.accounts_per_branch + DC.tellers_per_branch + 1) * DC.record_size)
    + (p.DC.history_slots * DC.history_slot)
  in
  (table_bytes + config.P.undo_capacity + mb + mb - 1) / mb

type cell = {
  c_shards : int;
  c_cross_per_100 : int;
  c_committed : int; (* single-shard commits *)
  c_cross : int;
  c_conflicts : int;
  c_switches : int;
  c_elapsed_us : float;
  c_tps : float; (* aggregate, over the frontier clock *)
  c_pkts_per_txn : float;
}

let run_cell ?config ?interval ?(mirrors = 1) ?(clients = 4) ?(params = DC.small_params)
    ?(seed = 42) ?(warmup = 400) ?(total = 4000) ~shards ~cross_per_100 () =
  let config =
    match config with Some c -> c | None -> { P.default_config with group_commit = 8 }
  in
  let bed = make_bed ~config ?interval ~dram_mb:(dram_mb_for ~config params) ~mirrors ~shards () in
  let l = load_debit_credit ~params ~clients ~seed bed in
  let cross_every = if cross_per_100 <= 0 then 0 else max 1 (100 / cross_per_100) in
  ignore (run l ~total:warmup ~cross_every ());
  (* run_sharded fenced on its way out; measure from the quiesced
     frontier with fresh NIC counters. *)
  reset_packets bed;
  let t0 = P.Shard.now bed.router in
  let s = run l ~total ~cross_every () in
  if not (consistent l) then failwith "Sharding.run_cell: TPC-B invariant violated";
  let elapsed_us = Time.to_us (P.Shard.now bed.router - t0) in
  let txns = s.Multi_client.ss_committed + s.Multi_client.ss_cross_committed in
  {
    c_shards = shards;
    c_cross_per_100 = cross_per_100;
    c_committed = s.Multi_client.ss_committed;
    c_cross = s.Multi_client.ss_cross_committed;
    c_conflicts = s.Multi_client.ss_conflicts;
    c_switches = s.Multi_client.ss_switches;
    c_elapsed_us = elapsed_us;
    c_tps = float_of_int txns *. 1e6 /. elapsed_us;
    c_pkts_per_txn = float_of_int (total_packets bed) /. float_of_int txns;
  }

(* ------------------------------------------------------------------ *)
(* Shard failover: the zero-committed-data-loss oracle, extended *)

type failover = {
  f_before : Multi_client.sharded_stats;
  f_after : Multi_client.sharded_stats;
  f_data_preserved : bool; (* recovered image == committed image *)
  f_consistent : bool; (* every shard's TPC-B invariant, before + after *)
  f_alerts : int; (* protocol-monitor alerts across all shards *)
}

let failover ?(shards = 2) ?(mirrors = 1) ?(victim = 0) ?(clients = 3) ?(traffic = 150)
    ?(cross_every = 10) ?(params = DC.small_params) ?(seed = 7) () =
  if victim < 0 || victim >= shards then invalid_arg "Sharding.failover: victim out of range";
  let config = { P.default_config with group_commit = 4 } in
  let bed = make_bed ~config ~dram_mb:(dram_mb_for ~config params) ~mirrors ~shards () in
  let l = load_debit_credit ~params ~clients ~seed bed in
  (* One protocol monitor per shard, wired as each engine's sink: it
     sees the shard's piece instants plus the router's phase-switch
     and cross-commit instants, so the STAR rule (cross-shard commits
     only inside single-master phases) is checked live. *)
  let monitors =
    Array.init shards (fun s ->
        let m = Trace.Monitor.create () in
        P.set_sink (P.Shard.db bed.router s) (Trace.Monitor.sink m);
        m)
  in
  let before = run l ~total:traffic ~cross_every () in
  let consistent0 = consistent l in
  let pre = checksum l ~shard:victim in
  (* Kill the victim shard's primary and rebuild it on that shard's
     spare from its own mirrors — no other shard is touched. *)
  let vb = bed.shard_beds.(victim) in
  ignore (Cluster.crash_node vb.sb_cluster 0 Cluster.Failure.Software_error);
  let t2 =
    P.recover_replicated ~config
      ~sink:(Trace.Monitor.sink monitors.(victim))
      ~cluster:vb.sb_cluster ~local:vb.sb_spare ~servers:vb.sb_servers ()
  in
  adopt l ~shard:victim t2;
  let f_data_preserved = checksum l ~shard:victim = pre in
  (* The cluster keeps going: more traffic, cross-shard included, with
     the recovered engine serving its shard from the spare node. *)
  let after = run l ~total:traffic ~cross_every () in
  let consistent1 = consistent l in
  {
    f_before = before;
    f_after = after;
    f_data_preserved;
    f_consistent = consistent0 && consistent1;
    f_alerts = Array.fold_left (fun acc m -> acc + Trace.Monitor.alert_count m) 0 monitors;
  }
