(* STAR-style epoch alternation for the sharded cluster (PAPERS.md:
   "STAR: Scaling Transactions through Asymmetric Replication").  The
   controller is a pure state machine over virtual time: it decides
   WHEN the cluster moves between the partitioned phase (single-shard
   transactions only, every primary active) and the single-master
   phase (one designated master drains the queued cross-shard
   backlog); actually fencing the shards and running the backlog is
   the router's job ([Perseas.Shard]). *)

open Sim

type kind = Partitioned | Single_master

type t = {
  interval : Time.t;  (* minimum partitioned-phase length between drains *)
  master : int;  (* shard designated to run single-master phases *)
  mutable kind : kind;
  mutable epoch : int;  (* increments on every switch, either direction *)
  mutable since : Time.t;  (* start of the current phase *)
  mutable backlog : int;  (* queued cross-shard transactions *)
  mutable drained : int;  (* cross-shard transactions committed, total *)
}

let create ?(interval = Time.us 200.0) ?(master = 0) () =
  if interval <= 0 then invalid_arg "Phase.create: interval must be positive";
  if master < 0 then invalid_arg "Phase.create: negative master shard";
  {
    interval;
    master;
    kind = Partitioned;
    epoch = 0;
    since = Time.zero;
    backlog = 0;
    drained = 0;
  }

let kind t = t.kind
let kind_label = function Partitioned -> "partitioned" | Single_master -> "single_master"
let epoch t = t.epoch
let master t = t.master
let interval t = t.interval
let backlog t = t.backlog
let drained t = t.drained
let since t = t.since

let enqueue t = t.backlog <- t.backlog + 1

(* A drain is due when cross-shard work is waiting and the partitioned
   phase has run its interval — the STAR trade: cross-shard latency is
   bounded by [interval], single-shard throughput pays only one fence
   per interval. *)
let due t ~now =
  t.kind = Partitioned && t.backlog > 0 && now - t.since >= t.interval

let switch t ~at ~to_ =
  t.kind <- to_;
  t.epoch <- t.epoch + 1;
  t.since <- at

let begin_single_master t ~at =
  if t.kind = Single_master then invalid_arg "Phase.begin_single_master: already single-master";
  switch t ~at ~to_:Single_master

let end_single_master t ~drained ~at =
  if t.kind = Partitioned then invalid_arg "Phase.end_single_master: not in single-master phase";
  if drained < 0 || drained > t.backlog then
    invalid_arg "Phase.end_single_master: drained count out of range";
  t.backlog <- t.backlog - drained;
  t.drained <- t.drained + drained;
  switch t ~at ~to_:Partitioned

(* Phases alternate starting from partitioned, so every odd epoch
   entered a single-master phase. *)
let single_master_phases t = (t.epoch + 1) / 2
