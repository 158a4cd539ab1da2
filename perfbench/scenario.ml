(* The benchmark's five workloads.  Each is a closed loop: a client
   sends its next transaction only after its previous one completed
   (under [Harness.Multi_client], after its previous one was handed to
   group commit).  Everything runs in one single-threaded process. *)

open Sim
module MC = Harness.Multi_client
module Sh = Harness.Sharding
module DC = Workloads.Debit_credit
module OE = Workloads.Order_entry

type trace = { sink : Trace.Sink.t; txns : Probe.window; recovery : Probe.window }

(* One run of [n] single-shard transactions, quiesced on return. *)
type chunk = {
  committed : int;  (** Durable transactions, cross-shard transfers included. *)
  attempts : int;  (** Begins. *)
  conflicts : int;  (** Conflict losses, each retried. *)
  lat_us : float array;  (** Virtual begin-to-durable latency of each single-shard commit. *)
  cross_lat_us : float array;  (** Virtual draw-to-commit latency of each cross-shard transfer. *)
}

type world = { bed : Sh.bed; run : int -> chunk; consistent : unit -> bool }

let router w = w.bed.Sh.router
let db w s = Perseas.Shard.db (router w) s
let dbs w = List.init (Perseas.Shard.shards (router w)) (db w)
let nics bed = Array.to_list (Array.map (fun b -> Cluster.nic b.Sh.sb_cluster) bed.Sh.shard_beds)
let source w = { Probe.nics = nics w.bed; dbs = dbs w; router = Some (router w) }

(* What one measured stretch of transactions left behind. *)
type step = { chunk : chunk; wall_s : float; virt_ns : int; pkts : int }

let merge a b =
  {
    chunk =
      {
        committed = a.chunk.committed + b.chunk.committed;
        attempts = a.chunk.attempts + b.chunk.attempts;
        conflicts = a.chunk.conflicts + b.chunk.conflicts;
        lat_us = Array.append a.chunk.lat_us b.chunk.lat_us;
        cross_lat_us = Array.append a.chunk.cross_lat_us b.chunk.cross_lat_us;
      };
    wall_s = a.wall_s +. b.wall_s;
    virt_ns = a.virt_ns + b.virt_ns;
    pkts = a.pkts + b.pkts;
  }

(* Run [f] on the (scaled) wall clock and the virtual clock [vnow],
   counting [packets], and with a trace fold its layer counters into
   the trace's transaction window. *)
let stretch ?trace ?probe ~src ~vnow ~packets f =
  let p0 = packets () and v0 = vnow () in
  let chunk, wall_s =
    Timed.scaled ?probe (fun () -> match trace with None -> f () | Some tr -> Probe.measure tr.txns src f)
  in
  { chunk; wall_s; virt_ns = vnow () - v0; pkts = packets () - p0 }

let eager_chunk clock tx n =
  let lat_us =
    Array.init n (fun _ ->
        let t0 = Clock.now clock in
        tx ();
        Time.to_us (Clock.now clock - t0))
  in
  { committed = n; attempts = n; conflicts = 0; lat_us; cross_lat_us = [||] }

(* One client on shard 0 running [transaction] back to back. *)
let eager bed ~seed ~setup ~transaction ~consistent =
  let t = Perseas.Shard.db bed.Sh.router 0 in
  let db = setup t in
  let rng = Rng.create seed in
  let clock = Cluster.clock (Perseas.cluster t) in
  { bed; run = eager_chunk clock (fun () -> transaction db rng); consistent = (fun () -> consistent db) }

let dc_eager ~params (module E : Timed.ENGINE) ~seed bed =
  let module W = DC.Make (E) in
  eager bed ~seed ~setup:(W.setup ~params) ~transaction:W.transaction ~consistent:W.consistent

let oe_eager ~params (module E : Timed.ENGINE) ~seed bed =
  let module W = OE.Make (E) in
  eager bed ~seed ~setup:(W.setup ~params) ~transaction:W.transaction ~consistent:W.consistent

let dc_group ~params ~clients (module E : Timed.ENGINE) ~seed bed =
  let module W = DC.Make (E) in
  let t = Perseas.Shard.db bed.Sh.router 0 in
  let db = W.setup t ~params in
  let rng = Rng.create seed in
  let st = Stamp.create bed.Sh.router in
  let spec = Stamp.spec st ~draw:(fun () -> W.draw db rng) ~declare:(W.declare db) ~apply:(W.apply db) in
  let run n =
    let s = MC.run t ~clients ~total:n spec in
    Stamp.settle st;
    let lat_us, _ = Stamp.take st in
    { committed = s.MC.committed; attempts = s.MC.attempts; conflicts = s.MC.conflicts; lat_us; cross_lat_us = [||] }
  in
  { bed; run; consistent = (fun () -> W.consistent db) }

(* [Harness.Sharding.load_debit_credit] and its cross-shard draw, over
   the engine under test: the harness versions are fixed to the untimed
   engine. *)
let dc_shard ~params ~clients ~cross_every (module E : Timed.ENGINE) ~seed bed =
  let module W = DC.Make (E) in
  let router = bed.Sh.router in
  let shards = Perseas.Shard.shards router in
  let dbs = Array.init shards (fun s -> W.setup (Perseas.Shard.db router s) ~params) in
  let root = Rng.create seed in
  let rngs = Array.init shards (fun _ -> Rng.split root) in
  let route = Rng.split root in
  let cross_draw () =
    let a = Rng.int route shards in
    let b = (a + 1 + Rng.int route (shards - 1)) mod shards in
    let da = W.draw dbs.(a) rngs.(a) in
    let db = W.draw dbs.(b) rngs.(b) in
    [ (a, da); (b, { db with W.delta = Int64.neg da.W.delta }) ]
  in
  let st = Stamp.create router in
  let spec =
    Stamp.shard_spec st
      ~draw:(fun s -> W.draw dbs.(s) rngs.(s))
      ~declare:(fun s -> W.declare dbs.(s))
      ~apply:(fun s -> W.apply dbs.(s))
  in
  let run n =
    let cross0 = (Perseas.Shard.stats router).Perseas.Shard.cross_committed in
    let s = MC.run_sharded router ~clients ~total:n ~cross_every ~cross:(Stamp.cross st cross_draw) spec in
    Stamp.settle st;
    let lat_us, cross_lat_us = Stamp.take st in
    {
      committed = s.MC.ss_committed + s.MC.ss_cross_committed - cross0;
      attempts = s.MC.ss_attempts;
      conflicts = s.MC.ss_conflicts;
      lat_us;
      cross_lat_us;
    }
  in
  { bed; run; consistent = (fun () -> Array.for_all W.consistent dbs) }

(* ------------------------------------------------------------------ *)
(* Crash and recovery *)

type recovery = { virt_us : float; wall_ms : float; durable : bool }

let checksums t =
  List.sort compare
    (List.map (fun s -> (Perseas.segment_name s, Perseas.checksum t s)) (Perseas.segments t))

(* Crash [primary] and rebuild the database on [local]; the rebuilt
   image must read [expected], the committed image's checksums. *)
let crash_and_recover ?trace ?checkpoint ~expected ~cluster ~primary ~local ~servers t =
  ignore (Cluster.crash_node cluster primary Cluster.Failure.Software_error);
  let clock = Cluster.clock cluster in
  let v0 = Clock.now clock in
  let recover () =
    Perseas.recover_replicated ~config:(Perseas.config t)
      ?sink:(Option.map (fun tr -> tr.sink) trace)
      ?checkpoint ~cluster ~local ~servers ()
  in
  let t2, wall_s =
    Timed.scaled_by_copy (fun () ->
        match trace with
        | None -> recover ()
        | Some tr -> Probe.measure tr.recovery { Probe.nics = [ Cluster.nic cluster ]; dbs = []; router = None } recover)
  in
  (t2, { virt_us = Time.to_us (Clock.now clock - v0); wall_ms = wall_s *. 1e3; durable = checksums t2 = expected })

(* ... and every mirror must match the rebuilt image. *)
let with_mirrors (t2, r) = (t2, { r with durable = r.durable && Perseas.verify_mirrors t2 = [] })

(* [rounds] recoveries of shard 0: crash its primary, rebuild it on the
   spare, reboot the old primary, which then serves as the next spare.
   No transaction runs between rounds, so every round must rebuild the
   same image; the mirrors are compared with it after the last round. *)
let recovery_rounds ?trace w ~rounds =
  let sb = w.bed.Sh.shard_beds.(0) in
  let cluster = sb.Sh.sb_cluster in
  let expected = checksums (db w 0) in
  let primary = ref 0 and spare = ref sb.Sh.sb_spare in
  List.init rounds (fun i ->
      (* Each recovery starts from a collected heap, so its time does not
         depend on how much garbage the window left behind. *)
      Gc.full_major ();
      let t2, r =
        crash_and_recover ?trace ~expected ~cluster ~primary:!primary ~local:!spare ~servers:sb.Sh.sb_servers
          (db w 0)
        |> if i = rounds - 1 then with_mirrors else Fun.id
      in
      Perseas.Shard.replace (router w) ~shard:0 t2;
      Cluster.restart_node cluster !primary;
      let p = !primary in
      primary := !spare;
      spare := p;
      r)

(* ------------------------------------------------------------------ *)
(* Checkpointed recovery cycles *)

type cycle_spec = {
  params : DC.params;
  before_ckpt : int;  (** Transactions before the checkpoint. *)
  tail_min : int;  (** The tail after it is drawn uniformly from [tail_min, tail_max]. *)
  tail_max : int;
  dram_mb : int;
  ckpt_dram_mb : int;  (** The checkpoint node holds both slots and the recovered database. *)
}

type cycle = {
  prep_s : float;  (** Wall time of everything before the crash. *)
  txns : step;  (** The transactions before and after the checkpoint. *)
  take_ms : float;
  ckpt_bytes : int;
  recovered : recovery;
}

let mb n = n * 1024 * 1024

(* A 4-node cluster (primary, mirror, checkpoint RAM target, spare), a
   checkpointed debit-credit database, a seeded tail of transactions
   after the checkpoint, a primary crash, and recovery onto the
   checkpoint node. *)
let cycle spec (module E : Timed.ENGINE) ?trace ~rng () =
  let module W = DC.Make (E) in
  (* One probe scales every stretch of the preparation. *)
  let probe = Timed.probe_ms () and t0 = Timed.now_ns () in
  let tail = spec.tail_min + Rng.int rng (spec.tail_max - spec.tail_min + 1) in
  let clock = Clock.create () in
  let cluster =
    Cluster.create ~clock
      (List.mapi
         (fun i (name, size) -> Cluster.spec ~dram_size:(mb size) ~power_supply:i name)
         [ ("primary", spec.dram_mb); ("mirror", spec.dram_mb); ("ckpt", spec.ckpt_dram_mb); ("spare", 4) ])
  in
  let server = Netram.Server.create (Cluster.node cluster 1) in
  let t = Perseas.init_replicated [ Netram.Client.create ~cluster ~local:0 ~server ] in
  let db = W.setup t ~params:spec.params in
  let ckpt_server = Netram.Server.create (Cluster.node cluster 2) in
  Perseas.Checkpoint.set_ram_target t ~server:ckpt_server;
  Option.iter (fun tr -> Perseas.set_sink t tr.sink) trace;
  let nic = Cluster.nic cluster in
  let run n =
    stretch ?trace ~probe
      ~src:{ Probe.nics = [ nic ]; dbs = [ t ]; router = None }
      ~vnow:(fun () -> Clock.now clock)
      ~packets:(fun () ->
        let c = Sci.Nic.counters nic in
        c.Sci.Nic.packets64 + c.Sci.Nic.packets16)
      (fun () -> eager_chunk clock (fun () -> W.transaction db rng) n)
  in
  let first = run spec.before_ckpt in
  let bytes0 = (Perseas.stats t).Perseas.checkpoint_bytes in
  let (_ : int64 * int), take_s = Timed.scaled ~probe (fun () -> Perseas.Checkpoint.take t) in
  let ckpt_bytes = (Perseas.stats t).Perseas.checkpoint_bytes - bytes0 in
  let second = run tail in
  let prep_s = Timed.seconds_since t0 *. Timed.reference_probe_ms /. probe in
  let expected = checksums t in
  (* As in the recovery rounds, recovery starts from a collected heap. *)
  Gc.full_major ();
  let _, recovered =
    crash_and_recover ?trace ~checkpoint:(Perseas.Ram_source ckpt_server) ~expected ~cluster
      ~primary:0 ~local:2 ~servers:[ server ] t
    |> with_mirrors
  in
  { prep_s; txns = merge first second; take_ms = take_s *. 1e3; ckpt_bytes; recovered }

(* ------------------------------------------------------------------ *)
(* The workloads *)

type commit_spec = {
  shards : int;
  mirrors : int;
  group_commit : int;
  node_mb : int;  (** DRAM per node: the database, its undo log and a recovered copy. *)
  warmup : int;
  chunk_size : int;  (** Transactions per call of [world.run]; the unit of the wall-clock median. *)
  per_s : float;  (** Chunks per requested second: the window is a fixed amount of work. *)
  rounds : int;  (** Crash-recovery rounds after the measured window. *)
  build : (module Timed.ENGINE) -> seed:int -> Sh.bed -> world;
}

type kind = Commit of commit_spec | Cycles of { spec : cycle_spec; per_s : float  (** Cycles per requested second. *) }
type t = { name : string; seed : int; kind : kind }

let make_bed c =
  Sh.make_bed
    ~config:{ Perseas.default_config with group_commit = c.group_commit }
    ~dram_mb:c.node_mb ~mirrors:c.mirrors ~shards:c.shards ()

(* [scale] shrinks every count (and, below 1, swaps in small schemas) so
   the tests can run each workload end to end in well under a second. *)
let all ?(scale = 1.0) () =
  let n x = max 1 (int_of_float (Float.round (float_of_int x *. scale))) in
  let small = scale < 1.0 in
  let dc_params = if small then DC.small_params else DC.default_params in
  [
    {
      name = "dc-eager-1m";
      seed = 7;
      kind =
        Commit
          {
            shards = 1;
            mirrors = 1;
            group_commit = 1;
            node_mb = (if small then 4 else 24);
            warmup = n 10_000;
            chunk_size = n 5_000;
            per_s = 2.0;
            rounds = n 25;
            build = dc_eager ~params:dc_params;
          };
    };
    {
      name = "oe-eager-3m";
      seed = 11;
      kind =
        Commit
          {
            shards = 1;
            mirrors = 3;
            group_commit = 1;
            node_mb = (if small then 4 else 8);
            warmup = n 5_000;
            chunk_size = n 2_500;
            per_s = 2.5;
            rounds = n 25;
            build = oe_eager ~params:(if small then OE.small_params else OE.default_params);
          };
    };
    {
      name = "dc-group-c8";
      seed = 97;
      kind =
        Commit
          {
            shards = 1;
            mirrors = 1;
            group_commit = 16;
            node_mb = (if small then 4 else 40);
            warmup = n 10_000;
            chunk_size = n 10_000;
            per_s = 1.0;
            rounds = n 25;
            build =
              dc_group ~clients:8
                ~params:
                  {
                    DC.scale = n 1024;
                    accounts_per_branch = max 25 (n 250);
                    history_slots = n 8192;
                    skew = DC.Uniform;
                  };
          };
    };
    {
      name = "dc-shard-s4";
      seed = 42;
      kind =
        Commit
          {
            shards = 4;
            mirrors = 1;
            group_commit = 8;
            node_mb = (if small then 4 else 8);
            warmup = n 3_000;
            chunk_size = n 3_000;
            per_s = 1.25;
            rounds = n 25;
            build =
              dc_shard ~clients:4 ~cross_every:20
                ~params:
                  {
                    DC.scale = 4;
                    accounts_per_branch = n 10_000;
                    history_slots = max 64 (n 4096);
                    skew = DC.Zipf 0.8;
                  };
          };
    };
    {
      name = "recover-ckpt";
      seed = 7;
      kind =
        Cycles
          {
            spec =
              {
                params = dc_params;
                before_ckpt = n 2_000;
                tail_min = n 100;
                tail_max = n 1_000;
                dram_mb = (if small then 4 else 16);
                ckpt_dram_mb = (if small then 4 else 40);
              };
            per_s = 3.5;
          };
    };
  ]

let names = List.map (fun w -> w.name) (all ())
let find name = List.find_opt (fun w -> w.name = name) (all ())
