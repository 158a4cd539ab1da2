open Sim

type result = {
  tps : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  elapsed : Time.t;
  iters : int;
  phases : Trace.phase_stat list;
}

let run ~clock ?(sink = Trace.Sink.noop) ?tail ?(finish = fun () -> ()) ~warmup ~iters tx =
  if iters <= 0 then invalid_arg "Measure.run: iters must be positive";
  for i = 0 to warmup - 1 do
    tx i
  done;
  finish ();
  let series = Stats.Series.create () in
  (* Cursor into the sink so the breakdown covers exactly the measured
     window — warmup spans are excluded. *)
  let mark = Trace.Sink.span_count sink in
  let feed_tail = tail <> None && Trace.Sink.enabled sink in
  let t0 = Clock.now clock in
  for i = 0 to iters - 1 do
    let sp_mark = if feed_tail then Trace.Sink.span_count sink else 0 in
    let ev_mark = if feed_tail then Trace.Sink.event_count sink else 0 in
    let s = Clock.now clock in
    tx (warmup + i);
    let lat = Time.to_us (Clock.now clock - s) in
    Stats.Series.add series lat;
    match tail with
    | Some tail when feed_tail ->
        (* Per-transaction window by cursor: spans into the per-phase
           histograms, the whole window into the exemplar reservoir
           when the latency clears the admission bar. *)
        Trace.Tail.observe tail ~latency_us:lat
          ~spans:(Trace.Sink.spans_since sink sp_mark)
          ~events:(Trace.Sink.events_since sink ev_mark)
    | Some tail -> Trace.Tail.observe tail ~latency_us:lat ~spans:[] ~events:[]
    | None -> ()
  done;
  finish ();
  let elapsed = Clock.now clock - t0 in
  let phases =
    if Trace.Sink.enabled sink then Trace.breakdown (Trace.Sink.spans_since sink mark) else []
  in
  {
    tps = float_of_int iters /. Time.to_s elapsed;
    mean_us = Stats.Series.mean series;
    p50_us = Stats.Series.median series;
    p99_us = Stats.Series.percentile series 99.;
    elapsed;
    iters;
    phases;
  }

let pp_result ppf r =
  Format.fprintf ppf "%.0f tps (mean %.2fus, p50 %.2fus, p99 %.2fus over %d txns)" r.tps r.mean_us
    r.p50_us r.p99_us r.iters

type mix =
  | Debit_credit of Workloads.Debit_credit.params
  | Order_entry of Workloads.Order_entry.params
  | Synthetic of { db_size : int; tx_size : int }
  | Overlap of { db_size : int }

let default_seed = function
  | Debit_credit _ -> 7
  | Order_entry _ -> 11
  | Synthetic _ -> 42
  | Overlap _ -> 97

(* Set [mix]'s database up on the engine; returns one transaction and
   the consistency check.  The functor-applied [db] type cannot leave
   this function, so both come back as closures. *)
let load (module I : Testbed.INSTANCE) mix rng =
  match mix with
  | Debit_credit params ->
      let module W = Workloads.Debit_credit.Make (I.E) in
      let db = W.setup I.engine ~params in
      ((fun () -> W.transaction db rng), fun () -> W.consistent db)
  | Order_entry params ->
      let module W = Workloads.Order_entry.Make (I.E) in
      let db = W.setup I.engine ~params in
      ((fun () -> W.transaction db rng), fun () -> W.consistent db)
  | Synthetic { db_size; tx_size } ->
      let module S = Workloads.Synthetic.Make (I.E) in
      let db = S.setup I.engine ~db_size in
      ((fun () -> S.transaction db rng ~tx_size), fun () -> true)
  | Overlap { db_size } ->
      let module S = Workloads.Synthetic.Make (I.E) in
      let db = S.setup I.engine ~db_size in
      ( (fun () -> S.overlap_transaction db rng ~pieces:12 ~piece_len:64 ~window:512),
        fun () -> true )

let workload ?seed ?(reset = ignore) ?observe ?sink ?tail ((module I : Testbed.INSTANCE) as inst)
    mix ~warmup ~iters =
  let rng = Rng.create (Option.value seed ~default:(default_seed mix)) in
  let tx, consistent = load inst mix rng in
  reset ();
  let tx =
    match observe with
    | None -> tx
    | Some f ->
        fun () ->
          let t0 = Clock.now I.clock in
          tx ();
          f (Time.to_us (Clock.now I.clock - t0))
  in
  let r = run ~clock:I.clock ?sink ?tail ~finish:I.finish ~warmup ~iters (fun _ -> tx ()) in
  if not (consistent ()) then failwith "Measure.workload: database inconsistent after the run";
  r
