(* Per-layer accounting for the traced run.  Every number is read from
   outside the layers: the engine's public counters, the NICs' traffic
   counters, the router's statistics, the GC, the timed engine calls of
   [Timed], and the spans and events the engine already emits, folded by
   an observer sink.  A window accumulates the difference between two
   snapshots taken around each measured stretch of work. *)

let spans = ref 0
let events = ref 0
let span_ns : (string, int) Hashtbl.t = Hashtbl.create 32

let observer =
  Trace.Sink.observer
    ~on_span:(fun (s : Trace.Span.t) ->
      incr spans;
      let key = s.cat ^ "." ^ s.name in
      let d = Trace.Span.duration s in
      Hashtbl.replace span_ns key (d + Option.value ~default:0 (Hashtbl.find_opt span_ns key)))
    ~on_event:(fun _ -> incr events)

(* A capped recording of the same stream, dumped as Perfetto JSON at the
   end of a traced run when one is asked for. *)
let ring = ref None

let sink () =
  match !ring with None -> observer | Some r -> Trace.Sink.tee [ r; observer ]

let record_ring ~capacity = ring := Some (Trace.Sink.memory ~capacity ())

let dump_ring path =
  Option.iter
    (fun r ->
      Trace.Export.chrome_json_to_file ~path ~spans:(Trace.Sink.spans r)
        ~events:(Trace.Sink.events r) ())
    !ring

let txn_phases =
  [ "begin"; "set_range"; "local_undo"; "remote_undo"; "in_place_write"; "commit"; "commit_propagate";
    "commit_segmeta"; "commit_fence"; "flush_convoy" ]

let recovery_phases = [ "probe"; "repair"; "fetch_db"; "resync_mirrors" ]

type source = { nics : Sci.Nic.t list; dbs : Perseas.t list; router : Perseas.Shard.t option }

let snapshot src =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let nic f = float_of_int (sum (fun n -> f (Sci.Nic.counters n)) src.nics) in
  let db f = float_of_int (sum (fun d -> f (Perseas.stats d)) src.dbs) in
  let shard f = match src.router with Some r -> float_of_int (f (Perseas.Shard.stats r)) | None -> 0. in
  let gc = Gc.quick_stat () in
  let timed name (a : Timed.acc) =
    [ (name ^ ".ns", float_of_int a.ns); (name ^ ".calls", float_of_int a.calls) ]
  in
  [ ("wall_ns", float_of_int (Timed.now_ns ())) ]
  @ timed "begin" Timed.begins @ timed "set_range" Timed.set_ranges @ timed "write" Timed.writes
  @ timed "commit" Timed.commits
  @ [
      ("write.bytes", float_of_int Timed.writes.bytes);
      ("pkts64", nic (fun c -> c.Sci.Nic.packets64));
      ("pkts16", nic (fun c -> c.Sci.Nic.packets16));
      ("bytes_written", nic (fun c -> c.Sci.Nic.bytes_written));
      ("bytes_read", nic (fun c -> c.Sci.Nic.bytes_read));
      ("set_ranges", db (fun s -> s.Perseas.set_ranges));
      ("undo_bytes", db (fun s -> s.Perseas.undo_bytes_logged));
      ("elided_bytes", db (fun s -> s.Perseas.elided_undo_bytes));
      ("conflicts", db (fun s -> s.Perseas.conflicts));
      ("group_flushes", db (fun s -> s.Perseas.group_flushes));
      ("group_txns", db (fun s -> s.Perseas.group_commit_txns));
      ("ckpt_bytes", db (fun s -> s.Perseas.checkpoint_bytes));
      ("switches", shard (fun s -> s.Perseas.Shard.switches));
      ("cross_conflicts", shard (fun s -> s.Perseas.Shard.cross_conflicts));
      ("minor_words", gc.Gc.minor_words);
      ("promoted_words", gc.Gc.promoted_words);
      ("major_collections", float_of_int gc.Gc.major_collections);
      ("spans", float_of_int !spans);
      ("events", float_of_int !events);
    ]
  @ List.concat_map
      (fun (cat, names) ->
        List.map
          (fun n ->
            let key = cat ^ "." ^ n in
            (key, float_of_int (Option.value ~default:0 (Hashtbl.find_opt span_ns key))))
          names)
      [ ("txn", txn_phases); ("recovery", recovery_phases) ]

type window = { mutable acc : (string * float) list }

let window () = { acc = [] }

let measure w src f =
  let before = snapshot src in
  let r = f () in
  let delta = List.map2 (fun (k, b) (_, a) -> (k, b -. a)) (snapshot src) before in
  w.acc <-
    (match w.acc with [] -> delta | acc -> List.map2 (fun (k, x) (_, d) -> (k, x +. d)) acc delta);
  r

let get w key = match List.assoc_opt key w.acc with Some v -> v | None -> 0.
