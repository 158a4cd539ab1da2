(* Flight recorder: a bounded ring of recent spans and events plus the
   online protocol monitor, teed into the one sink an engine under test
   carries.  The ring makes observation affordable on long runs (old
   history falls off the back; the drop counters say how much), and the
   monitor turns the same stream into typed protocol alerts.  When an
   oracle trips, [dump] freezes what the ring still holds into a
   post-mortem bundle — Perfetto trace, per-transaction causal
   timelines, the alert list, an engine stats snapshot — so a failed
   crash-sweep point or churn run leaves enough evidence to diagnose
   offline. *)

module P = Perseas

type t = {
  ring : Trace.Sink.t;  (* always a [Trace.Sink.memory] *)
  monitor : Trace.Monitor.t;
  sink : Trace.Sink.t;  (* the tee handed to the engine *)
}

(* A debit-credit commit emits about 20 spans (one per txn phase) and
   10 SCI pieces, so 16k of each is several hundred commits of lookback
   — plenty to cover the window between fault injection and oracle
   detection. *)
let capacity = 16384

let create ?on_alert () =
  let ring = Trace.Sink.memory ~capacity () in
  let monitor = Trace.Monitor.create ?on_alert () in
  { ring; monitor; sink = Trace.Sink.tee [ ring; Trace.Monitor.sink monitor ] }

let sink t = t.sink
let monitor t = t.monitor
let alerts t = Trace.Monitor.alerts t.monitor
let alert_count t = Trace.Monitor.alert_count t.monitor
let attach t engine = P.set_sink engine t.sink

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let dump t ~dir ~cause ?stats () =
  mkdirs dir;
  let spans = Trace.Sink.spans t.ring in
  let events = Trace.Sink.events t.ring in
  let write name s =
    let oc = open_out (Filename.concat dir name) in
    output_string oc s;
    close_out oc
  in
  let alert_json a =
    Printf.sprintf "%S" (json_escape (Format.asprintf "%a" Trace.Monitor.pp_alert a))
  in
  (* Separate span/event drop counts: a full event ring with an empty
     span ring (or vice versa) says which half of the story the bundle
     is missing. *)
  write "header.json"
    (Printf.sprintf
       "{\"cause\": \"%s\",\n\
       \ \"spans\": %d, \"events\": %d,\n\
       \ \"dropped_spans\": %d, \"dropped_events\": %d,\n\
       \ \"alerts\": [%s]}\n"
       (json_escape cause)
       (List.length spans) (List.length events)
       (Trace.Sink.dropped_spans t.ring)
       (Trace.Sink.dropped_events t.ring)
       (String.concat ", " (List.map alert_json (alerts t))));
  (* Worst-K outliers as named flow events: rank each stitched timeline
     by wall extent and arrow the slowest through the Perfetto tracks,
     so the bundle shows where the bad transactions went, not just
     everything that happened. *)
  let timelines = Trace.Causal.build ~spans ~events in
  let extent (tl : Trace.Causal.timeline) =
    match tl.Trace.Causal.c_hops with
    | [] -> Sim.Time.zero
    | first :: _ ->
        let stop =
          List.fold_left (fun acc h -> max acc h.Trace.Causal.h_stop) first.Trace.Causal.h_stop
            tl.Trace.Causal.c_hops
        in
        stop - first.Trace.Causal.h_start
  in
  let flows =
    List.filteri
      (fun i _ -> i < 8)
      (List.sort
         (fun a b -> compare (extent b) (extent a))
         (List.filter (fun tl -> tl.Trace.Causal.c_hops <> []) timelines))
    |> List.map (fun tl ->
           ( Printf.sprintf "worst txn %s (%.1fus)" tl.Trace.Causal.c_txn
               (Sim.Time.to_us (extent tl)),
             tl ))
  in
  Trace.Export.chrome_json_to_file ~flows
    ~path:(Filename.concat dir "trace.json")
    ~spans ~events ();
  write "causal.txt" (Trace.Causal.render_all timelines);
  (match stats with Some s -> write "stats.json" (P.stats_to_json s ^ "\n") | None -> ());
  dir

let timelines t =
  Trace.Causal.build ~spans:(Trace.Sink.spans t.ring) ~events:(Trace.Sink.events t.ring)
