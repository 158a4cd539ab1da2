(* The machine-readable benchmark matrix behind the CI perf gate:
   virtual tps / mean / p99 for every engine and workload (PERSEAS at
   1-3 mirrors), written to BENCH_summary.json at the repo root, and a
   comparator that measures the matrix fresh and judges it against a
   committed baseline.  All numbers are virtual-time and deterministic,
   so the gate's tolerance only has to absorb intended model drift, not
   machine noise. *)

module T = Testbed

type entry = {
  engine : string;
  workload : string;
  mirrors : int;  (* 0 for single-node baselines *)
  tps : float;
  mean_us : float;
  p99_us : float;
  pkts_per_txn : float option;  (* PERSEAS cells only: NIC packets / txn *)
  phase_p99 : (string * float) list;
      (* PERSEAS cells only: p99 virtual us per txn phase from the live
         Trace.Tail histograms; [] for baselines and older schemas. *)
}

let workloads =
  [
    ("debit-credit", Measure.Debit_credit Workloads.Debit_credit.default_params);
    ("order-entry", Measure.Order_entry Workloads.Order_entry.default_params);
  ]

(* PERSEAS cells keep their bed so the gate can also read the cluster
   NIC's packet counters. *)
let perseas_cell mirrors () =
  let bed = T.make ~mirrors () in
  (* The tail attaches only after setup (inside [measure]'s reset), so
     the per-phase histograms cover the warmup + measured window, not
     database creation. *)
  let attach_tail () =
    let tail = Trace.Tail.create () in
    Perseas.set_sink bed.perseas (Trace.Tail.sink tail);
    tail
  in
  (T.instance bed, Some (Cluster.nic bed.cluster), Some attach_tail)

(* Fresh instance per cell — engines accumulate state. *)
let engines =
  [
    ("PERSEAS", 1, perseas_cell 1);
    ("PERSEAS", 2, perseas_cell 2);
    ("PERSEAS", 3, perseas_cell 3);
    ("RVM", 0, fun () -> (T.rvm_instance (), None, None));
    ("RVM-Rio", 0, fun () -> (T.rvm_instance ~rio:true (), None, None));
    ("Vista", 0, fun () -> (T.vista_instance (), None, None));
    ("RemoteWAL", 0, fun () -> (T.remote_wal_instance (), None, None));
  ]

let measure (inst, nic, attach_tail) mix =
  let iters = if T.label inst = "RVM" then 2_000 else 10_000 in
  let warmup = iters / 10 in
  let tail = ref None in
  (* Counters are reset after setup, so packets/txn covers exactly the
     warmup + measured transactions (the tail histograms likewise). *)
  let reset () =
    Option.iter Sci.Nic.reset_counters nic;
    tail := Option.map (fun f -> f ()) attach_tail
  in
  let r = Measure.workload ~reset inst mix ~warmup ~iters in
  let pkts =
    Option.map
      (fun n ->
        let c = Sci.Nic.counters n in
        float_of_int (c.Sci.Nic.packets64 + c.Sci.Nic.packets16) /. float_of_int (warmup + iters))
      nic
  in
  let phase_p99 = match !tail with Some t -> Trace.Tail.phase_p99s t | None -> [] in
  (r, pkts, phase_p99)

(* Concurrency cell: the R9 experiment's cell (debit-credit under 8
   interleaved clients at one mirror, two client rounds per
   group-commit flush) over a longer window.  Only debit-credit is
   meaningful here, so the cell sits outside the engine x workload
   matrix above; its packet gate is what keeps the group-commit
   schedule honest at load — pkts/txn creeping up under concurrency
   fails CI even when the eager cells stay flat. *)
let concurrency_clients = 8

let concurrent_entry () =
  let c =
    Experiments.concurrency_cell ~mirrors:1 ~clients:concurrency_clients ~warmup:1_000
      ~txns:10_000
  in
  let amortized_us = c.Experiments.cc_elapsed_us /. float_of_int c.Experiments.cc_committed in
  {
    engine = Printf.sprintf "PERSEAS-c%d" concurrency_clients;
    workload = "debit-credit";
    mirrors = 1;
    tps = c.Experiments.cc_tps;
    (* Per-transaction latency percentiles are not defined under group
       commit (commit returns before the batch propagates), so both
       latency columns carry the amortized per-transaction cost. *)
    mean_us = amortized_us;
    p99_us = amortized_us;
    pkts_per_txn = Some c.Experiments.cc_pkts_per_txn;
    (* Per-phase percentiles are as undefined as the latency columns
       here: phases of staged transactions land in the convoy's window. *)
    phase_p99 = [];
  }

(* Recovery-time cell: the checkpoint-recovery cycle (a checkpointed
   debit-credit database loses its primary and is rebuilt on the
   checkpoint target's node from the slot plus the mirror tail).  tps
   is recoveries/second and both latency columns carry the recovery
   time itself, so the debit-credit tps gate also fails CI when
   checkpointed recovery slows by more than the tolerance. *)
let checkpoint_entry () =
  let c = Experiments.checkpoint_cycle ~txns:2_000 ~tail:200 () in
  assert c.Experiments.mirrors_clean;
  let recovery_us = c.Experiments.recovery_us in
  {
    engine = "PERSEAS-ckpt";
    workload = "debit-credit";
    mirrors = 1;
    tps = 1e6 /. recovery_us;
    mean_us = recovery_us;
    p99_us = recovery_us;
    pkts_per_txn = None;
    phase_p99 = [];
  }

(* Sharded cell: 4 shards at one mirror each, 5 cross-shard transfers
   per 100 singles through the single-master phases — the R13 protocol
   under gate.  tps is aggregate over the frontier clock; both latency
   columns carry the amortized per-transaction cost (group commit plus
   phase fences make per-transaction percentiles undefined here, as in
   the concurrency cell).  Baselines written before this cell existed
   simply lack it, and the comparator treats a missing baseline cell as
   informational, so the gate stays backward-compatible. *)
let sharded_shards = 4

let sharded_entry () =
  let params =
    {
      Workloads.Debit_credit.scale = 4;
      accounts_per_branch = 10_000;
      history_slots = 4096;
      skew = Workloads.Debit_credit.Zipf 0.8;
    }
  in
  let cell =
    Sharding.run_cell ~params ~warmup:600 ~total:6_000 ~shards:sharded_shards ~cross_per_100:5 ()
  in
  let txns = cell.Sharding.c_committed + cell.Sharding.c_cross in
  let amortized_us = cell.Sharding.c_elapsed_us /. float_of_int txns in
  {
    engine = Printf.sprintf "PERSEAS-s%d" sharded_shards;
    workload = "debit-credit";
    mirrors = 1;
    tps = cell.Sharding.c_tps;
    mean_us = amortized_us;
    p99_us = amortized_us;
    pkts_per_txn = Some cell.Sharding.c_pkts_per_txn;
    phase_p99 = [];
  }

let collect () =
  List.concat_map
    (fun (engine, mirrors, make) ->
      List.map
        (fun (workload, mix) ->
          let r, pkts, phase_p99 = measure (make ()) mix in
          {
            engine;
            workload;
            mirrors;
            tps = r.Measure.tps;
            mean_us = r.Measure.mean_us;
            p99_us = r.Measure.p99_us;
            pkts_per_txn = pkts;
            phase_p99;
          })
        workloads)
    engines
  @ [ concurrent_entry (); checkpoint_entry (); sharded_entry () ]

let to_json entries =
  let cell e =
    let pkts =
      match e.pkts_per_txn with
      | Some p -> Printf.sprintf ", \"pkts_per_txn\": %.17g" p
      | None -> ""
    in
    let phases =
      match e.phase_p99 with
      | [] -> ""
      | ps ->
          Printf.sprintf ", \"phase_p99_us\": { %s }"
            (String.concat ", "
               (List.map (fun (name, p) -> Printf.sprintf "%S: %.4f" name p) ps))
    in
    Printf.sprintf
      "    { \"engine\": %S, \"workload\": %S, \"mirrors\": %d, \"tps\": %.17g, \"mean_us\": \
       %.17g, \"p99_us\": %.17g%s%s }"
      e.engine e.workload e.mirrors e.tps e.mean_us e.p99_us pkts phases
  in
  "{\n  \"schema\": \"perseas-bench-summary/1\",\n  \"entries\": [\n"
  ^ String.concat ",\n" (List.map cell entries)
  ^ "\n  ]\n}\n"

let of_json j =
  let entry e =
    let num k = Json.to_float (Json.member_exn k e) in
    {
      engine = Json.to_string (Json.member_exn "engine" e);
      workload = Json.to_string (Json.member_exn "workload" e);
      mirrors = Json.to_int (Json.member_exn "mirrors" e);
      tps = num "tps";
      mean_us = num "mean_us";
      p99_us = num "p99_us";
      (* Absent in baselines written before the packet column existed. *)
      pkts_per_txn = Option.map Json.to_float (Json.member "pkts_per_txn" e);
      (* Likewise absent before the per-phase tail column; an old
         baseline still gates on tps/pkts/p99, just without
         attribution. *)
      phase_p99 =
        (match Json.member "phase_p99_us" e with
        | None -> []
        | Some o -> List.map (fun (k, v) -> (k, Json.to_float v)) (Json.to_obj o));
    }
  in
  List.map entry (Json.to_list (Json.member_exn "entries" j))

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_json (Json.parse_exn s)

let write ~path entries =
  let oc = open_out path in
  output_string oc (to_json entries);
  close_out oc

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)

type verdict = {
  entry : entry;
  baseline_tps : float option;
  delta_pct : float option;  (* negative = regression *)
  baseline_pkts : float option;
  pkts_delta_pct : float option;  (* positive = more packets *)
  baseline_p99 : float option;
  p99_delta_pct : float option;  (* positive = slower tail *)
  baseline_phase_p99 : (string * float) list;  (* [] when the baseline predates it *)
  gated : bool;  (* part of the hard gate (debit-credit tps + pkts + p99) *)
  failed : bool;
}

let compare_to_baseline ?(tolerance_pct = 10.0) ?(pkts_tolerance_pct = 2.0)
    ?(p99_tolerance_pct = 20.0) ~baseline current =
  let find e =
    List.find_opt
      (fun b -> b.engine = e.engine && b.workload = e.workload && b.mirrors = e.mirrors)
      baseline
  in
  let verdicts =
    List.map
      (fun e ->
        let gated = e.workload = "debit-credit" in
        match find e with
        | None ->
            {
              entry = e;
              baseline_tps = None;
              delta_pct = None;
              baseline_pkts = None;
              pkts_delta_pct = None;
              baseline_p99 = None;
              p99_delta_pct = None;
              baseline_phase_p99 = [];
              gated;
              failed = false;
            }
        | Some b ->
            let delta = 100.0 *. (e.tps -. b.tps) /. b.tps in
            (* The packet gate only engages when both sides carry the
               column — baselines written before it existed gate on tps
               alone. *)
            let pkts_delta =
              match (e.pkts_per_txn, b.pkts_per_txn) with
              | Some cur, Some base when base > 0.0 -> Some (100.0 *. (cur -. base) /. base)
              | _ -> None
            in
            (* Tail-latency gate: a tps-neutral change can still push
               the p99 out (a longer worst-case convoy, a new stall in
               one phase), so the debit-credit tail is held to its own
               tolerance. *)
            let p99_delta =
              if b.p99_us > 0.0 then Some (100.0 *. (e.p99_us -. b.p99_us) /. b.p99_us) else None
            in
            {
              entry = e;
              baseline_tps = Some b.tps;
              delta_pct = Some delta;
              baseline_pkts = b.pkts_per_txn;
              pkts_delta_pct = pkts_delta;
              baseline_p99 = Some b.p99_us;
              p99_delta_pct = p99_delta;
              baseline_phase_p99 = b.phase_p99;
              gated;
              failed =
                gated
                && (delta < -.tolerance_pct
                   || (match pkts_delta with Some d -> d > pkts_tolerance_pct | None -> false)
                   || match p99_delta with Some d -> d > p99_tolerance_pct | None -> false);
            })
      current
  in
  (* Baseline coverage dropped from the matrix is a gate failure too —
     a silently vanished cell must not read as a pass. *)
  let missing =
    List.filter
      (fun b ->
        b.workload = "debit-credit"
        && not
             (List.exists
                (fun e ->
                  e.engine = b.engine && e.workload = b.workload && e.mirrors = b.mirrors)
                current))
      baseline
  in
  let verdicts =
    verdicts
    @ List.map
        (fun b ->
          {
            entry = b;
            baseline_tps = Some b.tps;
            delta_pct = None;
            baseline_pkts = b.pkts_per_txn;
            pkts_delta_pct = None;
            baseline_p99 = Some b.p99_us;
            p99_delta_pct = None;
            baseline_phase_p99 = b.phase_p99;
            gated = true;
            failed = true;
          })
        missing
  in
  (verdicts, List.exists (fun v -> v.failed) verdicts)

let print_verdicts ~tolerance_pct verdicts =
  let header =
    [ "engine"; "workload"; "mirrors"; "baseline tps"; "tps"; "delta"; "pkts/txn"; "pkts delta";
      "p99 (us)"; "p99 delta"; "gate" ]
  in
  let fmt_pkts = function Some p -> Printf.sprintf "%.2f" p | None -> "-" in
  let rows =
    List.map
      (fun v ->
        [
          v.entry.engine;
          v.entry.workload;
          (if v.entry.mirrors = 0 then "-" else string_of_int v.entry.mirrors);
          (match v.baseline_tps with Some t -> Table.fmt_tps t | None -> "(new)");
          (match v.delta_pct with None when v.baseline_tps <> None -> "MISSING"
          | _ -> Table.fmt_tps v.entry.tps);
          (match v.delta_pct with Some d -> Printf.sprintf "%+.1f%%" d | None -> "-");
          fmt_pkts v.entry.pkts_per_txn;
          (match v.pkts_delta_pct with Some d -> Printf.sprintf "%+.1f%%" d | None -> "-");
          Table.fmt_us v.entry.p99_us;
          (match v.p99_delta_pct with Some d -> Printf.sprintf "%+.1f%%" d | None -> "-");
          (if v.failed then "FAIL" else if v.gated then "ok" else "info");
        ])
      verdicts
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Bench gate: debit-credit tps within %.0f%% of baseline, packets/txn not up, p99 not \
          blown (other cells informational)"
         tolerance_pct)
    ~header rows;
  (* A failed cell gets its tail attributed: which phase's p99 moved,
     so the gate's verdict names a suspect instead of just a number. *)
  List.iter
    (fun v ->
      if v.failed && v.entry.phase_p99 <> [] then begin
        Printf.printf "%s %s x%d p99 attribution (phase: now vs baseline):\n" v.entry.engine
          v.entry.workload v.entry.mirrors;
        if v.baseline_phase_p99 = [] then
          print_endline "  no per-phase baseline (older schema) - current p99 per phase only";
        let moved =
          List.map
            (fun (name, p) ->
              let base = List.assoc_opt name v.baseline_phase_p99 in
              let delta = match base with Some b when b > 0. -> Some (p -. b) | _ -> None in
              (name, p, base, delta))
            v.entry.phase_p99
        in
        let key = function _, _, _, Some d -> -.abs_float d | _, p, _, None -> -.p in
        List.iter
          (fun (name, p, base, delta) ->
            Printf.printf "  %-18s %8.2f us%s\n" name p
              (match (base, delta) with
              | Some b, Some d -> Printf.sprintf " vs %8.2f us (%+.2f us)" b d
              | _ -> ""))
          (List.sort (fun a b -> compare (key a) (key b)) moved)
      end)
    verdicts
