(* Churn experiment: drive a live debit-credit workload while a
   failure/repair process crashes and pauses mirror nodes, and let the
   {!Perseas.Supervisor} heal the replication factor from a spare pool.
   The oracle holds the run to the paper's core promise — no committed
   transaction is ever lost: mirrors scrub clean at quiesce, the factor
   returns to target after every failure, and a recovery performed on a
   fresh workstation after killing the primary reproduces the exact
   committed image. *)

open Sim
module P = Perseas
module Sup = Perseas.Supervisor
module W = Workloads.Debit_credit.Make (Perseas.Engine)

type kind = Pause | Crash

type params = {
  seed : int;
  mirrors : int;  (* initial mirrors = the replication target *)
  spares : int;  (* spare-pool size *)
  duration : Time.t;  (* failure-injection horizon *)
  mtbf : Time.t;  (* mean time between failure injections *)
  outage : Time.t;  (* mean outage before the repair process acts *)
  pause_fraction : float;  (* P(transient pause) vs node crash *)
  policy : Sup.policy;
  checkpoint_interval : Time.t option;
      (* when set, a dedicated node holds a checkpoint target and the
         background checkpointer truncates the logs every interval *)
}

let default_params =
  {
    seed = 42;
    mirrors = 2;
    spares = 2;
    duration = Time.ms 40.0;
    mtbf = Time.ms 1.5;
    outage = Time.us 400.0;
    pause_fraction = 0.5;
    policy = Sup.default_policy;
    checkpoint_interval = None;
  }

type injection = { at : Time.t; node : int; kind : kind }

type window = {
  w_node : int;  (* the loss that opened the window *)
  w_kind : kind option;
  w_start : Time.t;
  w_restored : Time.t;
  w_resyncs : P.resync_report list;  (* the recruitments that closed it *)
}

type report = {
  committed : int;
  outage_retries : int;  (* transactions retried after All_mirrors_lost *)
  injections : injection list;  (* oldest first *)
  nodes_hit : int list;
  windows : window list;
  degraded_time : Time.t;
  run_time : Time.t;
  tps : float;
  incremental_resyncs : int;
  full_resyncs : int;
  incremental_bytes : int;
  full_resync_bytes : int;
  full_copy_bytes : int;  (* what one full copy of the database moves *)
  stats : P.stats;
  factor_restored : bool;
  consistent_under_churn : bool;
  verify_clean : bool;
  committed_data_preserved : bool;
  recovered_consistent : bool;
  supervisor_events : Sup.event list;
}

exception Oracle_violation of string

let kind_label = function Pause -> "pause" | Crash -> "crash"

let check r =
  let fail fmt = Printf.ksprintf (fun m -> raise (Oracle_violation m)) fmt in
  if not r.factor_restored then fail "replication factor not restored at quiesce";
  if not r.consistent_under_churn then fail "TPC-B invariant broken under churn";
  if not r.verify_clean then fail "verify_mirrors found divergent mirrors at quiesce";
  if not r.committed_data_preserved then
    fail "committed data lost: the image recovered after killing the primary differs";
  if not r.recovered_consistent then fail "recovered database violates the TPC-B invariant"

let run ?(params = default_params) ?telemetry ?postmortem ?sink () =
  if params.mirrors < 1 then invalid_arg "Churn.run: at least one mirror";
  if params.spares < 1 then invalid_arg "Churn.run: at least one spare";
  let pool = params.mirrors + params.spares in
  let observer = pool + 1 in
  let bed =
    Testbed.make ~dram_mb:4 ~mirrors:params.mirrors
      ~extras:
        (List.init params.spares (Printf.sprintf "spare%d")
        @ [ "observer" ]
        (* The checkpoint target rides a node of its own, after the
           observer so every id in the checkpoint-free layout is
           unchanged.  It is never a churn victim (victims are drawn
           from live mirrors only): losing it is Checkpoint's own
           concern, exercised by the Crashpoint Ckpt_target sweep. *)
        @ if params.checkpoint_interval = None then [] else [ "ckpt" ])
      ()
  in
  let ({ clock; cluster; perseas = t; _ } : Testbed.bed) = bed in
  (* Current server per pool node; a crashed node gets a fresh one on
     restart (the old exports are gone with its DRAM). *)
  let servers = Hashtbl.create 8 in
  List.iteri (fun i s -> Hashtbl.replace servers (i + 1) s) bed.servers;
  for id = params.mirrors + 1 to pool do
    Hashtbl.replace servers id (Netram.Server.create (Cluster.node cluster id))
  done;
  (* The flight recorder watches the whole run — workload, failures,
     repairs, the final recovery — through one bounded ring + monitor.
     A pure observer: postmortem-on runs are byte-identical to
     postmortem-off ones. *)
  let forensics = Option.map (fun dir -> (Forensics.create (), dir)) postmortem in
  (* Flight recorder and any caller sink (a live Trace.Tail, say) share
     the stream via a tee; both stay pure observers. *)
  (match Option.to_list sink @ List.map (fun (f, _) -> Forensics.sink f) (Option.to_list forensics) with
  | [] -> ()
  | ss -> P.set_sink t (Trace.Sink.tee ss));
  let db = W.setup t ~params:Workloads.Debit_credit.small_params in
  let ckpt_server =
    Option.map
      (fun _ ->
        let s = Netram.Server.create (Cluster.node cluster (observer + 1)) in
        P.Checkpoint.set_ram_target t ~server:s;
        s)
      params.checkpoint_interval
  in
  let sup =
    Sup.create ~policy:params.policy ~target:params.mirrors
      ~spares:(List.init params.spares (fun i -> Hashtbl.find servers (params.mirrors + 1 + i)))
      t
  in
  let events = Events.create clock in
  (* The checkpointer shares the main queue: its truncations interleave
     with repairs and recruitments, so every incremental resync taken
     after this point leans on the checkpoint summary where the dirty
     log was cut. *)
  Option.iter
    (fun interval ->
      P.Checkpoint.auto t ~events ~interval ~until:params.duration ~budget:(64 * 1024))
    params.checkpoint_interval;
  (* Telemetry rides on its own event queue, pumped passively wherever
     the clock advances.  The main queue's [next_at] drives wake-up
     decisions in [ensure_service] and the quiesce drain; keeping the
     sampler off it means a telemetry-on run takes byte-identical
     scheduling decisions to a telemetry-off run — the observer can
     never perturb the experiment, only watch it. *)
  let tel_events = Events.create clock in
  let server_label id = Cluster.Node.name (Cluster.node cluster id) in
  (match telemetry with
  | None -> ()
  | Some (tel, interval) ->
      P.set_telemetry t tel;
      Sup.set_telemetry sup tel;
      Hashtbl.iter (fun id s -> Netram.Server.set_telemetry s tel ~label:(server_label id)) servers;
      (* Rates go last so they see the refreshed cumulative gauges. *)
      Trace.Timeseries.rate tel ~name:"rate.tps" ~source:"perseas.committed";
      Trace.Timeseries.rate tel ~name:"rate.bytes_per_s" ~source:"nic.bytes";
      Trace.Timeseries.rate tel ~name:"rate.rpc_per_s" ~source:"netram.rpc_ops";
      Trace.Timeseries.sample tel ~at:(Clock.now clock);
      (* Keep sampling through quiesce; 4x the horizon bounds the tail
         so a slow settle can't flood the series. *)
      Events.every tel_events ~interval ~until:(4 * params.duration) (fun at ->
          Trace.Timeseries.sample tel ~at));
  let pump_telemetry () = Events.run_due tel_events in
  let fail_rng = Rng.create params.seed in
  let work_rng = Rng.create (params.seed + 1) in
  let injections = ref [] in
  let repairing = Hashtbl.create 8 in
  let exp_delay mean = Time.ns (max 1 (int_of_float (Rng.exponential fail_rng ~mean:(float_of_int (Time.to_ns mean))))) in
  (* Round-robin over the pool so every node gets killed, restricted to
     nodes currently serving as live mirrors (a pooled spare that dies
     would just pollute the pool with a permanently-dead server). *)
  let rr = ref 0 in
  let pick_victim () =
    let live = P.live_mirrors t in
    let rec go tries =
      if tries > pool then None
      else
        let id = 1 + ((!rr + tries - 1) mod pool) in
        if List.mem id live && not (Hashtbl.mem repairing id) then begin
          rr := id mod pool;
          Some id
        end
        else go (tries + 1)
    in
    go 1
  in
  let schedule_repair node kind =
    Hashtbl.replace repairing node ();
    let delay = exp_delay params.outage in
    match kind with
    | Pause ->
        (* Transient outage: the server process is wedged or partitioned
           but its node — and the exported segments — survive.  The
           returning server is exactly what incremental resync wants. *)
        let s = Hashtbl.find servers node in
        Netram.Server.pause s;
        ignore
          (Events.schedule_after events ~delay (fun () ->
               Hashtbl.remove repairing node;
               Netram.Server.resume s;
               Sup.add_spare sup s))
    | Crash ->
        (* Node crash: DRAM (and every export) is gone; the rebooted
           node offers a cold server, so recruiting it is a full copy. *)
        ignore (Cluster.crash_node cluster node Cluster.Failure.Software_error);
        ignore
          (Events.schedule_after events ~delay (fun () ->
               Hashtbl.remove repairing node;
               Cluster.restart_node cluster node;
               let s = Netram.Server.create (Cluster.node cluster node) in
               Hashtbl.replace servers node s;
               (match telemetry with
               | Some (tel, _) -> Netram.Server.set_telemetry s tel ~label:(server_label node)
               | None -> ());
               Sup.add_spare sup s))
  in
  let rec schedule_injection () =
    ignore
      (Events.schedule_after events ~delay:(exp_delay params.mtbf) (fun () ->
           if Clock.now clock < params.duration then begin
             (match pick_victim () with
             | Some node ->
                 let kind = if Rng.float fail_rng 1.0 < params.pause_fraction then Pause else Crash in
                 injections := { at = Clock.now clock; node; kind } :: !injections;
                 schedule_repair node kind
             | None -> ());
             schedule_injection ()
           end))
  in
  schedule_injection ();
  (* When the last mirror dies mid-transaction the library rolls back
     and raises; service resumes once a repair event returns a spare
     and the supervisor recruits it. *)
  let ensure_service () =
    let guard = ref 0 in
    while P.mirror_count t = 0 do
      incr guard;
      if !guard > 10_000 then failwith "Churn.run: cluster never became serviceable again";
      Sup.tick sup;
      if P.mirror_count t = 0 then begin
        let soonest_retry =
          if Sup.spares sup = [] then None
          else Some (max (Sup.retry_at sup) (Clock.now clock + Time.us 1.0))
        in
        let next =
          match (Events.next_at events, soonest_retry) with
          | Some at, Some retry -> min at retry
          | Some at, None -> at
          | None, Some retry -> retry
          | None, None -> failwith "Churn.run: no mirrors, no spares, no pending repairs"
        in
        Clock.advance_to clock next;
        Events.run_due events;
        pump_telemetry ()
      end
    done
  in
  let committed = ref 0 and outage_retries = ref 0 in
  let t_start = Clock.now clock in
  while Clock.now clock < params.duration do
    Events.run_due events;
    pump_telemetry ();
    Sup.tick sup;
    match W.transaction db work_rng with
    | () -> incr committed
    | exception P.All_mirrors_lost ->
        incr outage_retries;
        ensure_service ()
  done;
  let run_time = Clock.now clock - t_start in
  let tps = float_of_int !committed /. Time.to_s run_time in
  (* Quiesce: stop injecting (the horizon passed), drain every pending
     repair, and let the supervisor finish restoring the factor. *)
  let rec drain () =
    match Events.next_at events with
    | Some at ->
        Clock.advance_to clock at;
        Events.run_due events;
        pump_telemetry ();
        Sup.tick sup;
        drain ()
    | None -> ()
  in
  drain ();
  let settle = ref 0 in
  while Sup.degraded sup && !settle < 1000 do
    incr settle;
    Clock.advance_to clock
      (max (Sup.retry_at sup) (Clock.now clock + params.policy.Sup.probe_interval));
    pump_telemetry ();
    Sup.tick sup
  done;
  pump_telemetry ();
  let factor_restored = not (Sup.degraded sup) in
  let consistent_under_churn = W.consistent db in
  let verify_clean = P.verify_mirrors t = [] in
  let signature tt =
    List.sort compare (List.map (fun s -> (P.segment_name s, P.checksum tt s)) (P.segments tt))
  in
  let pre = signature t in
  let stats = P.stats t in
  (* The availability claim under churn: kill the primary, rebuild the
     database on a workstation that has never seen it — or, with
     checkpoints on, on the target's node, which adopts the slot in
     place — and compare against the committed image. *)
  ignore (Cluster.crash_node cluster 0 Cluster.Failure.Software_error);
  let candidate_servers = List.init pool (fun i -> Hashtbl.find servers (i + 1)) in
  let checkpoint, local =
    match ckpt_server with
    | Some s -> (Some (P.Ram_source s), observer + 1)
    | None -> (None, observer)
  in
  let t2 =
    P.recover_replicated ~config:(P.config t)
      ?sink:(Option.map (fun (f, _) -> Forensics.sink f) forensics)
      ?checkpoint ~cluster ~local ~servers:candidate_servers ()
  in
  let committed_data_preserved = signature t2 = pre in
  let recovered_consistent = W.consistent (W.rebind db t2) in
  (* Degraded windows, from the supervisor's event log: a window opens
     when the factor first drops below target and closes with the
     recruitment that restores it. *)
  let sup_events = Sup.events sup in
  let injections = List.rev !injections in
  let kind_for node at =
    List.fold_left
      (fun acc inj -> if inj.node = node && inj.at <= at then Some inj.kind else acc)
      None injections
  in
  let windows =
    let live = ref params.mirrors in
    let open_w = ref None in
    let resyncs = ref [] in
    let acc = ref [] in
    List.iter
      (fun (e : Sup.event) ->
        match e with
        | Sup.Mirror_lost { at; node_id } ->
            if !live = params.mirrors then begin
              open_w := Some (at, node_id);
              resyncs := []
            end;
            live := max 0 (!live - 1)
        | Sup.Recruited { at; report; _ } ->
            live := min params.mirrors (!live + 1);
            resyncs := report :: !resyncs;
            if !live = params.mirrors then
              Option.iter
                (fun (t0, node) ->
                  acc :=
                    {
                      w_node = node;
                      w_kind = kind_for node t0;
                      w_start = t0;
                      w_restored = at;
                      w_resyncs = List.rev !resyncs;
                    }
                    :: !acc;
                  open_w := None)
                !open_w
        | Sup.Attempt_failed _ | Sup.Gave_up _ -> ())
      sup_events;
    List.rev !acc
  in
  let recruits =
    List.filter_map (function Sup.Recruited { report; _ } -> Some report | _ -> None) sup_events
  in
  let incremental = List.filter (fun r -> r.P.mode = P.Incremental) recruits in
  let fulls = List.filter (fun r -> r.P.mode = P.Full) recruits in
  let sum_bytes = List.fold_left (fun a (r : P.resync_report) -> a + r.bytes_copied) 0 in
  let report =
  {
    committed = !committed;
    outage_retries = !outage_retries;
    injections;
    nodes_hit = List.sort_uniq compare (List.map (fun i -> i.node) injections);
    windows;
    degraded_time = List.fold_left (fun a w -> a + (w.w_restored - w.w_start)) 0 windows;
    run_time;
    tps;
    incremental_resyncs = List.length incremental;
    full_resyncs = List.length fulls;
    incremental_bytes = sum_bytes incremental;
    full_resync_bytes = sum_bytes fulls;
    full_copy_bytes = List.fold_left (fun a s -> a + P.segment_size s) 0 (P.segments t);
    stats;
    factor_restored;
    consistent_under_churn;
    verify_clean;
    committed_data_preserved;
    recovered_consistent;
    supervisor_events = sup_events;
  }
  in
  (match forensics with
  | None -> ()
  | Some (f, dir) ->
      let dump cause = ignore (Forensics.dump f ~dir ~cause ~stats ()) in
      (match Forensics.alerts f with
      | a :: _ ->
          let msg =
            Printf.sprintf "protocol monitor alert under churn: %s"
              (Format.asprintf "%a" Trace.Monitor.pp_alert a)
          in
          dump msg;
          raise (Oracle_violation msg)
      | [] -> ());
      (* A failed oracle leaves its evidence behind before re-raising;
         [check] stays idempotent for callers that run it again. *)
      (try check report
       with Oracle_violation msg as e ->
         dump msg;
         raise e));
  report

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)

let csv_header =
  [
    "window";
    "node";
    "failure";
    "start (us)";
    "restored (us)";
    "degraded (us)";
    "resync";
    "bytes copied";
    "full copy (B)";
    "tps under churn";
  ]

let us t = Printf.sprintf "%.2f" (Time.to_us t)

let window_mode w =
  match List.sort_uniq compare (List.map (fun (r : P.resync_report) -> r.P.mode) w.w_resyncs) with
  | [ P.Incremental ] -> "incremental"
  | [ P.Full ] -> "full"
  | [] -> "-"
  | _ -> "mixed"

let report_rows r =
  let window_rows =
    List.mapi
      (fun i w ->
        let bytes =
          List.fold_left (fun a (x : P.resync_report) -> a + x.bytes_copied) 0 w.w_resyncs
        in
        [
          string_of_int (i + 1);
          string_of_int w.w_node;
          (match w.w_kind with Some k -> kind_label k | None -> "?");
          us w.w_start;
          us w.w_restored;
          us (w.w_restored - w.w_start);
          window_mode w;
          string_of_int bytes;
          string_of_int r.full_copy_bytes;
          "";
        ])
      r.windows
  in
  window_rows
  @ [
      [
        "total";
        "-";
        "-";
        "-";
        us r.run_time;
        us r.degraded_time;
        Printf.sprintf "%d incr / %d full" r.incremental_resyncs r.full_resyncs;
        string_of_int (r.incremental_bytes + r.full_resync_bytes);
        string_of_int r.full_copy_bytes;
        Printf.sprintf "%.0f" r.tps;
      ];
    ]
