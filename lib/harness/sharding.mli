(** Harness for the sharded multi-primary cluster ({!Perseas.Shard}).

    A {!bed} holds one full replicated PERSEAS world per shard —
    primary, mirrors and a cold spare on distinct power supplies, each
    shard on its own cluster and virtual clock — behind one router.
    The debit-credit loader splits the bank across the shards;
    {!run_cell} measures one point of the sharding-scaling experiment;
    {!failover} is the shard extension of the zero-committed-data-loss
    oracle. *)

open Sim

type shard_bed = {
  sb_clock : Clock.t;
  sb_cluster : Cluster.t;
  sb_servers : Netram.Server.t list;
  sb_spare : int;  (** Node id of the cold spare (own power supply). *)
}

type bed = { router : Perseas.Shard.t; shard_beds : shard_bed array; mirrors : int }

val make_bed :
  ?config:Perseas.config ->
  ?strategy:Cluster.Shard_map.strategy ->
  ?interval:Time.t ->
  ?dram_mb:int ->
  ?mirrors:int ->
  shards:int ->
  unit ->
  bed
(** Build [shards] independent replicated worlds, each a
    {!Testbed.make} cluster with a spare (default one mirror, 64 MB
    DRAM per node), and route them through one {!Perseas.Shard.t}.
    Clocks are per shard — commits on one shard leave the others'
    virtual time untouched, which is where the scaling comes from. *)

val total_packets : bed -> int
(** Sum of 64- and 16-byte packets over every shard's NIC. *)

(** {1 Debit-credit over the shards} *)

module W : module type of Workloads.Debit_credit.Make (Perseas.Engine)

type loaded = {
  l_bed : bed;
  l_dbs : W.db array;
  l_rngs : Rng.t array;
  l_route : Rng.t;
  l_clients : int;
}

val load_debit_credit :
  ?params:Workloads.Debit_credit.params -> ?clients:int -> ?seed:int -> bed -> loaded
(** Set up one debit-credit bank per shard ([params] each, default
    {!Workloads.Debit_credit.small_params}) with split rng streams so
    shard schedules are independent and deterministic. *)

val run : loaded -> total:int -> ?cross_every:int -> unit -> Multi_client.sharded_stats
(** Drive [l_clients] clients per shard until [total] single-shard
    commits land, injecting one two-shard transfer per [cross_every]
    single-shard commits (0 = never); quiesced and fenced on return. *)

val consistent : loaded -> bool
(** Every shard's TPC-B consistency condition. *)

val checksum : loaded -> shard:int -> int64

(** {1 Measured scaling cell} *)

type cell = {
  c_shards : int;
  c_cross_per_100 : int;  (** Cross-shard transfers per 100 singles. *)
  c_committed : int;
  c_cross : int;
  c_conflicts : int;
  c_switches : int;
  c_elapsed_us : float;
  c_tps : float;  (** Aggregate commits/s over the frontier clock. *)
  c_pkts_per_txn : float;
}

val run_cell :
  ?config:Perseas.config ->
  ?interval:Time.t ->
  ?mirrors:int ->
  ?clients:int ->
  ?params:Workloads.Debit_credit.params ->
  ?seed:int ->
  ?warmup:int ->
  ?total:int ->
  shards:int ->
  cross_per_100:int ->
  unit ->
  cell
(** One point of the sharding experiment: build a fresh bed (default
    group commit 8, one mirror) with every node sized to hold one
    shard's bank of [params] (default
    {!Workloads.Debit_credit.small_params}) and its undo log, warm it
    up, then measure [total] single-shard commits plus the implied
    cross-shard mix.  Aggregate tps is measured on the frontier clock
    ({!Perseas.Shard.now}), so shard parallelism shows up as wall-clock
    speedup.  Fails if any shard ends inconsistent. *)

(** {1 Shard failover oracle} *)

type failover = {
  f_before : Multi_client.sharded_stats;
  f_after : Multi_client.sharded_stats;
  f_data_preserved : bool;
      (** The victim shard's recovered image equals its committed
          image — the zero-committed-data-loss claim. *)
  f_consistent : bool;
  f_alerts : int;  (** {!Trace.Monitor} alerts across all shards. *)
}

val failover :
  ?shards:int ->
  ?mirrors:int ->
  ?victim:int ->
  ?clients:int ->
  ?traffic:int ->
  ?cross_every:int ->
  ?params:Workloads.Debit_credit.params ->
  ?seed:int ->
  unit ->
  failover
(** Run mixed traffic ([params] per shard, default
    {!Workloads.Debit_credit.small_params}, on nodes sized as in
    {!run_cell}) with a protocol monitor on every shard, crash the
    [victim] shard's primary, rebuild it on that shard's spare via
    {!Perseas.recover_replicated}, rebind the router and the workload
    to the recovered engine, and run more traffic.
    The oracle passes when committed data survived byte-for-byte, the
    TPC-B invariant held before and after, and no monitor raised. *)
