(* Cluster health from the gauge time-series: run the churn experiment
   instrumented, check that what the sampler saw agrees with what the
   supervisor logged, and render a `top`-style dashboard of a finished
   run.  Everything here is a consumer of {!Trace.Timeseries}; the
   instrumentation itself lives with the components. *)

open Sim
module Sup = Perseas.Supervisor
module Ts = Trace.Timeseries

let default_interval = Time.us 100.0

let instrumented_churn ?(params = Churn.default_params) ?(interval = default_interval) ?tail () =
  let tel = Ts.create () in
  let sink = Option.map Trace.Tail.sink tail in
  let r = Churn.run ~params ~telemetry:(tel, interval) ?sink () in
  (r, tel)

(* ------------------------------------------------------------------ *)
(* Agreement between the sampled series and the supervisor's log       *)

type agreement = {
  windows_total : int;
  windows_seen : int;  (* windows some degraded signal overlapped *)
  degraded_signals : int;  (* degraded samples + degraded_us growth intervals *)
  matched_signals : int;  (* of those, overlapping some (slackened) window *)
}

(* [start, restored) spans where the factor sat below target, replayed
   from the event log exactly as {!Churn.run} derives its windows; a
   window still open at the end of the log has no restoration time. *)
let degraded_spans ~target events =
  let live = ref target in
  let open_at = ref None in
  let acc = ref [] in
  List.iter
    (fun (e : Sup.event) ->
      match e with
      | Sup.Mirror_lost { at; _ } ->
          if !live = target then open_at := Some at;
          live := max 0 (!live - 1)
      | Sup.Recruited { at; _ } ->
          live := min target (!live + 1);
          if !live = target then
            Option.iter
              (fun t0 ->
                acc := (t0, Some at) :: !acc;
                open_at := None)
              !open_at
      | Sup.Attempt_failed _ | Sup.Gave_up _ -> ())
    events;
  Option.iter (fun t0 -> acc := (t0, None) :: !acc) !open_at;
  List.rev !acc

let is_degraded (s : Ts.sample) =
  match List.assoc_opt "sup.degraded" s.values with Some v -> v > 0 | None -> false

let degraded_us (s : Ts.sample) =
  match List.assoc_opt "perseas.degraded_us" s.values with Some v -> v | None -> 0

(* Each degraded signal in the series, as a [t0, t1] interval of sample
   labels.  Two kinds: a sample that saw [sup.degraded] set (a window
   open at pump time), and a consecutive pair across which the
   cumulative [perseas.degraded_us] gauge grew — a window can open and
   close entirely between two pumps (the resync copy advances the
   clock inside one supervisor tick), invisible to the instantaneous
   gauge but not to the cumulative one. *)
let degraded_signals samples =
  let instants =
    List.filter_map (fun (s : Ts.sample) -> if is_degraded s then Some (s.at, s.at) else None)
      samples
  in
  let rec deltas acc = function
    | (a : Ts.sample) :: (b :: _ as rest) ->
        deltas (if degraded_us b > degraded_us a then (a.at, b.at) :: acc else acc) rest
    | _ -> List.rev acc
  in
  instants @ deltas [] samples

(* The sampler labels with grid time but reads state at pump time, and
   a pump can lag a whole resync copy behind the grid; [slack] absorbs
   that.  It only needs to be small against the mean time between
   failures, not against the window length. *)
let agreement ?(slack = Time.ms 5.0) ~target ~samples events =
  let spans = degraded_spans ~target events in
  let overlaps (t0, t1) (l, r) =
    t1 >= l - slack && match r with Some r -> t0 <= r + slack | None -> true
  in
  let signals = degraded_signals samples in
  let matched = List.filter (fun i -> List.exists (overlaps i) spans) signals in
  let seen = List.filter (fun span -> List.exists (fun i -> overlaps i span) signals) spans in
  {
    windows_total = List.length spans;
    windows_seen = List.length seen;
    degraded_signals = List.length signals;
    matched_signals = List.length matched;
  }

let check_agreement a =
  if a.degraded_signals > 0 && a.matched_signals < a.degraded_signals then
    failwith
      (Printf.sprintf
         "Telemetry: %d of %d degraded signals fall outside every supervisor degraded window"
         (a.degraded_signals - a.matched_signals)
         a.degraded_signals);
  if a.windows_total > 0 && a.windows_seen = 0 then
    failwith "Telemetry: supervisor logged degraded windows but the series shows none"

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)

let csv ~tel =
  let names = Ts.names tel in
  (Trace.Export.timeseries_csv_header names, Trace.Export.timeseries_csv_rows ~names (Ts.samples tel))

(* ------------------------------------------------------------------ *)
(* The dashboard                                                       *)

(* Eight-level block sparkline of [name] over the run, [width] columns,
   each column the max over its bucket of samples (so narrow spikes
   survive the squeeze). *)
let sparkline ?(width = 60) tel name =
  let samples = Ts.samples tel in
  let n = List.length samples in
  if n = 0 then ""
  else begin
    let values = Array.of_list (List.map (fun (s : Ts.sample) ->
        match List.assoc_opt name s.values with Some v -> v | None -> 0) samples) in
    let width = min width n in
    let buckets = Array.make width 0 in
    Array.iteri (fun i v ->
        let b = i * width / n in
        if v > buckets.(b) then buckets.(b) <- v) values;
    let top = Array.fold_left max 1 buckets in
    let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                    "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |] in
    let buf = Buffer.create (width * 3) in
    Array.iter (fun v -> Buffer.add_string buf blocks.(v * 7 / top)) buckets;
    Buffer.contents buf
  end

let top ?tail (r : Churn.report) tel =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let v name = Ts.value tel name in
  let stats = r.Churn.stats in
  line "PERSEAS cluster health — virtual time %.1f ms, epoch %d, %d samples"
    (Time.to_ms r.run_time) (v "perseas.epoch") (Ts.sample_count tel);
  line "";
  line "  replication   %d live / target restored: %b   spares %d   %d degraded windows, %.0f us total (%.2f%% of run)"
    (v "perseas.live_mirrors") r.factor_restored (v "sup.spares") (List.length r.windows)
    (Time.to_us r.degraded_time)
    (100.0 *. Time.to_s r.degraded_time /. Time.to_s r.run_time);
  line "  workload      %d committed, %d aborts (%d conflicts, %d other), %.0f tps under churn   undo hwm %d B   dirty ranges %d"
    stats.Perseas.committed stats.Perseas.aborts stats.Perseas.conflicts
    (stats.Perseas.aborts - stats.Perseas.conflicts)
    r.tps stats.Perseas.undo_hwm_bytes (v "perseas.dirty_log");
  if stats.Perseas.checkpoints_taken > 0 || v "perseas.checkpoints_taken" > 0 then
    line "  checkpoints   %d published, %s B shipped   log truncated %s B   undo tail %d B"
      stats.Perseas.checkpoints_taken
      (Table.fmt_int stats.Perseas.checkpoint_bytes)
      (Table.fmt_int stats.Perseas.log_truncated_bytes)
      (v "perseas.undo_tail");
  line "  healing       %d mirrors lost   %d incr + %d full resyncs, %s B moved (full copy: %s B)"
    stats.Perseas.mirrors_lost r.incremental_resyncs r.full_resyncs
    (Table.fmt_int (r.incremental_bytes + r.full_resync_bytes))
    (Table.fmt_int r.full_copy_bytes);
  line "  network       %s pkts (%s B) in %s bursts, %s rpcs"
    (Table.fmt_int (v "nic.pkts"))
    (Table.fmt_int (v "nic.bytes"))
    (Table.fmt_int (v "nic.bursts"))
    (Table.fmt_int (v "netram.rpc_ops"));
  (* Live per-phase tail, when a Trace.Tail rode along on the span
     stream: where the p99 microseconds of a transaction go. *)
  Option.iter
    (fun tail ->
      match Trace.Tail.phase_p99s tail with
      | [] -> ()
      | ps ->
          line "  phase p99     %s   (%d txn-phase samples)"
            (String.concat "   "
               (List.map (fun (n, p) -> Printf.sprintf "%s %.1fus" n p) ps))
            (List.fold_left
               (fun acc (_, h) -> acc + Sim.Stats.Histogram.count h)
               0 (Trace.Tail.phases tail)))
    tail;
  (* Per-server liveness, from the netram.<label>.alive gauges. *)
  let servers =
    List.filter_map
      (fun n ->
        if String.length n > 13 && String.sub n 0 7 = "netram." && Filename.check_suffix n ".alive"
        then Some (String.sub n 7 (String.length n - 13))
        else None)
      (Ts.names tel)
  in
  if servers <> [] then
    line "  servers       %s"
      (String.concat "   "
         (List.map
            (fun label ->
              let state =
                if v (Printf.sprintf "netram.%s.paused" label) > 0 then "PAUSED"
                else if v (Printf.sprintf "netram.%s.alive" label) > 0 then "up"
                else "DOWN"
              in
              Printf.sprintf "%s:%s" label state)
            servers));
  line "";
  List.iter
    (fun name ->
      if List.mem name (Ts.names tel) then
        line "  %-22s %s  (peak %s)" name (sparkline tel name) (Table.fmt_int (Ts.hwm tel name)))
    [
      "rate.tps"; "rate.bytes_per_s"; "perseas.live_mirrors"; "sup.spares"; "perseas.degraded_us";
      "perseas.undo_tail"; "perseas.checkpoint_bytes";
    ];
  Buffer.contents b
