(* Durability stamps for transactions driven by [Harness.Multi_client].

   Under group commit, [commit] returns before the transaction is
   durable: it is durable once the convoy carrying it has fenced.
   [Multi_client] is reused as is, so the stamps are taken from its
   callbacks:

   - [prepare] stamps the start, just before the first begin; a retry
     reuses the drawn work and so keeps the stamp;
   - [apply] runs immediately before [Perseas.commit] and marks the
     transaction submitted;
   - at every callback, and once after [Multi_client] returns
     ([settle]), every submitted transaction of a shard whose staged
     queue is empty is durable, and is stamped at that shard's clock.

   The only clock advance between a flush and the next callback is one
   [begin], so a stamp is late by at most one begin cost.  A phase fence
   synchronises every shard clock to the frontier, so transactions made
   durable by a fence are stamped at the post-sync clock.  Cross-shard
   transfers are timed on the frontier clock, from their draw until the
   router's committed cross-shard count covers them. *)

open Sim

type t = {
  router : Perseas.Shard.t;
  submitted : Time.t Queue.t array;  (* per shard: start stamps of submitted, not yet durable *)
  crosses : Time.t Queue.t;  (* frontier time at which each queued transfer was drawn *)
  mutable cross_done : int;  (* committed transfers already stamped *)
  mutable lat_us : float list;  (* newest first *)
  mutable cross_lat_us : float list;
}

(* Cross-shard transfers committed so far.  The phase controller's count
   equals the router's [cross_committed] outside a drain and costs O(1),
   where the router's statistics walk the whole phase history. *)
let drained router = Cluster.Phase.drained (Perseas.Shard.phase router)

let create router =
  {
    router;
    submitted = Array.init (Perseas.Shard.shards router) (fun _ -> Queue.create ());
    crosses = Queue.create ();
    cross_done = drained router;
    lat_us = [];
    cross_lat_us = [];
  }

let shard_now t s = Clock.now (Cluster.clock (Perseas.cluster (Perseas.Shard.db t.router s)))

let settle t =
  Array.iteri
    (fun s q ->
      if (not (Queue.is_empty q)) && Perseas.staged_count (Perseas.Shard.db t.router s) = 0 then begin
        let now = shard_now t s in
        Queue.iter (fun start -> t.lat_us <- Time.to_us (now - start) :: t.lat_us) q;
        Queue.clear q
      end)
    t.submitted;
  if not (Queue.is_empty t.crosses) then begin
    let committed = drained t.router in
    let now = Perseas.Shard.now t.router in
    while t.cross_done < committed && not (Queue.is_empty t.crosses) do
      t.cross_done <- t.cross_done + 1;
      t.cross_lat_us <- Time.to_us (now - Queue.pop t.crosses) :: t.cross_lat_us
    done
  end

let start t ~shard =
  settle t;
  shard_now t shard

let submit t ~shard start =
  settle t;
  Queue.push start t.submitted.(shard)

(* Latencies stamped since the last call, oldest first. *)
let take t =
  let lat = Array.of_list (List.rev t.lat_us) and cross = Array.of_list (List.rev t.cross_lat_us) in
  t.lat_us <- [];
  t.cross_lat_us <- [];
  (lat, cross)

let spec t ~draw ~declare ~apply =
  {
    Harness.Multi_client.prepare =
      (fun _ ->
        let start = start t ~shard:0 in
        (draw (), start));
    declare =
      (fun txn (d, _) ->
        settle t;
        declare txn d);
    apply =
      (fun (d, start) ->
        submit t ~shard:0 start;
        apply d);
  }

(* Cross-shard pieces carry no start stamp: they are timed as whole
   transfers, not as single-shard transactions. *)
let shard_spec t ~draw ~declare ~apply =
  {
    Harness.Multi_client.sh_prepare =
      (fun ~shard ~client:_ ->
        let start = start t ~shard in
        (draw shard, Some start));
    sh_declare =
      (fun ~shard txn (d, _) ->
        settle t;
        declare shard txn d);
    sh_apply =
      (fun ~shard (d, start) ->
        (match start with Some s -> submit t ~shard s | None -> settle t);
        apply shard d);
  }

let cross t draw () =
  match draw () with
  | [] -> []
  | pieces ->
      Queue.push (Perseas.Shard.now t.router) t.crosses;
      List.map (fun (s, d) -> (s, (d, None))) pieces
