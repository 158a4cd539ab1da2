(* A population of simulated clients multiplexed over one PERSEAS
   instance.  The engine is single-threaded (the simulation is
   deterministic virtual time), so "concurrency" means interleaving:
   the driver round-robins the clients, each turn advancing one client
   by one transaction phase — begin+declare on one turn, apply+commit
   on a later one — so up to [clients] transactions are genuinely in
   flight between turns, which is exactly the window group commit
   batches over and conflict detection polices. *)

type stats = { committed : int; conflicts : int; attempts : int }

let client_name i = Printf.sprintf "client-%d" i

(* ------------------------------------------------------------------ *)
(* Round-robin phase driver *)

type 'a spec = {
  prepare : int -> 'a;
  declare : Perseas.txn -> 'a -> unit;
  apply : 'a -> unit;
}

type 'a slot = Idle | Retry of 'a | Open of Perseas.txn * 'a

let run t ~clients ~total (spec : 'a spec) =
  if clients < 1 then invalid_arg "Multi_client.run: clients must be positive";
  let state = Array.make clients Idle in
  let names = Array.init clients client_name in
  let committed = ref 0 and conflicts = ref 0 and attempts = ref 0 in
  let i = ref 0 in
  (* A client whose begin+declare succeeded leaves its transaction open
     across the other clients' turns; it applies and commits when its
     turn comes round again.  A conflicted client retries the same
     drawn work next turn — by then the older holder has had a full
     round to commit, which is all the backoff a round-robin world
     needs. *)
  while !committed < total do
    let c = !i mod clients in
    i := !i + 1;
    (match state.(c) with
    | Idle | Retry _ -> (
        let d = match state.(c) with Retry d -> d | _ -> spec.prepare c in
        incr attempts;
        let txn = Perseas.begin_transaction ~client:names.(c) t in
        match spec.declare txn d with
        | () -> state.(c) <- Open (txn, d)
        | exception Perseas.Conflict _ ->
            incr conflicts;
            state.(c) <- Retry d)
    | Open (txn, d) -> (
        match Perseas.validate txn with
        | () ->
            spec.apply d;
            Perseas.commit txn;
            incr committed;
            state.(c) <- Idle
        | exception Perseas.Conflict _ ->
            (* An older peer doomed us while we were parked; the
               rollback already happened at doom time. *)
            incr conflicts;
            state.(c) <- Retry d))
  done;
  (* Drain: abort parked transactions and flush the staged tail so the
     database quiesces at a committed state. *)
  Array.iter (function Open (txn, _) -> (try Perseas.abort txn with Perseas.Conflict _ -> ()) | _ ->
()) state;
  Perseas.flush t;
  { committed = !committed; conflicts = !conflicts; attempts = !attempts }

(* ------------------------------------------------------------------ *)
(* Per-shard round-robin driver for the sharded router *)

type sharded_stats = {
  ss_committed : int; (* single-shard commits, all shards *)
  ss_cross_committed : int;
  ss_conflicts : int;
  ss_attempts : int;
  ss_switches : int; (* single-master phases entered during the run *)
}

type 'a shard_spec = {
  sh_prepare : shard:int -> client:int -> 'a;
  sh_declare : shard:int -> Perseas.txn -> 'a -> unit;
  sh_apply : shard:int -> 'a -> unit;
}

(* The single-engine driver above, replicated per shard: each shard
   runs [clients] interleaved clients against its own primary (its own
   clock — one turn on shard 0 does not advance shard 1's time, so the
   shards genuinely overlap in virtual time), while cross-shard
   transactions are queued through the router and drained at its
   single-master phases.  One round = one client turn on every shard;
   the router ticks once per round, so a due phase switch lands at a
   turn boundary exactly like the group-commit convoys it fences. *)
let run_sharded router ~clients ~total ?(cross_every = 0) ?(cross = fun () -> []) (spec : 'a shard_spec)
    =
  if clients < 1 then invalid_arg "Multi_client.run_sharded: clients must be positive";
  let shards = Perseas.Shard.shards router in
  let state = Array.init shards (fun _ -> Array.make clients Idle) in
  let names = Array.init clients client_name in
  let turn_of = Array.make shards 0 in
  let committed = ref 0 and conflicts = ref 0 and attempts = ref 0 in
  let injected = ref 0 in
  let switches0 = Cluster.Phase.single_master_phases (Perseas.Shard.phase router) in
  let inject_cross () =
    match cross () with
    | [] -> ()
    | pieces ->
        let involved = List.map fst pieces in
        ignore
          (Perseas.Shard.submit_cross router ~shards:involved (fun get ->
               List.iter
                 (fun (sid, d) ->
                   let _db, txn = get sid in
                   spec.sh_declare ~shard:sid txn d)
                 pieces;
               List.iter (fun (sid, d) -> spec.sh_apply ~shard:sid d) pieces))
  in
  let turn s =
    let t = Perseas.Shard.db router s in
    let slots = state.(s) in
    let c = turn_of.(s) mod clients in
    turn_of.(s) <- turn_of.(s) + 1;
    match slots.(c) with
    | Idle | Retry _ -> (
        let d =
          match slots.(c) with Retry d -> d | _ -> spec.sh_prepare ~shard:s ~client:c
        in
        incr attempts;
        let txn = Perseas.begin_transaction ~client:names.(c) t in
        match spec.sh_declare ~shard:s txn d with
        | () -> slots.(c) <- Open (txn, d)
        | exception Perseas.Conflict _ ->
            incr conflicts;
            slots.(c) <- Retry d)
    | Open (txn, d) -> (
        match Perseas.validate txn with
        | () ->
            spec.sh_apply ~shard:s d;
            Perseas.commit txn;
            incr committed;
            slots.(c) <- Idle
        | exception Perseas.Conflict _ ->
            incr conflicts;
            slots.(c) <- Retry d)
  in
  while !committed < total do
    for s = 0 to shards - 1 do
      turn s
    done;
    if cross_every > 0 then
      while !committed / cross_every > !injected do
        incr injected;
        inject_cross ()
      done;
    Perseas.Shard.tick router
  done;
  (* Quiesce: abort parked transactions everywhere, then force the
     remaining cross-shard backlog through final single-master phases
     (nothing is open any more, so nothing can conflict). *)
  Array.iter
    (Array.iter (function
      | Open (txn, _) -> ( try Perseas.abort txn with Perseas.Conflict _ -> ())
      | _ -> ()))
    state;
  let guard = ref 0 in
  while Perseas.Shard.backlog router > 0 do
    incr guard;
    if !guard > 4 then failwith "Multi_client.run_sharded: cross-shard backlog failed to drain";
    ignore (Perseas.Shard.drain router)
  done;
  Perseas.Shard.fence router;
  {
    ss_committed = !committed;
    ss_cross_committed = (Perseas.Shard.stats router).Perseas.Shard.cross_committed;
    ss_conflicts = !conflicts;
    ss_attempts = !attempts;
    ss_switches =
      Cluster.Phase.single_master_phases (Perseas.Shard.phase router) - switches0;
  }
