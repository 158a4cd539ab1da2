open Sim

module Span = struct
  type t = {
    name : string;
    cat : string;
    start : Time.t;
    stop : Time.t;
    args : (string * string) list;
  }

  let duration s = s.stop - s.start
  let duration_us s = Time.to_us (duration s)

  let pp ppf s =
    Format.fprintf ppf "%s/%s [%a, %a)" s.cat s.name Time.pp s.start Time.pp s.stop
end

module Event = struct
  type t = { name : string; cat : string; at : Time.t; args : (string * string) list }

  let pp ppf e = Format.fprintf ppf "%s/%s @ %a" e.cat e.name Time.pp e.at
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                                *)

module Sink = struct
  (* A store is either unbounded (newest-first list) or a fixed-size
     circular buffer that forgets its oldest entries.  [total] counts
     everything ever recorded, so cursors handed out by [span_count]
     keep their meaning after the ring wraps. *)
  type 'a store = {
    cap : int; (* 0 = unbounded *)
    mutable items : 'a list; (* newest first; unbounded mode only *)
    ring : 'a option array; (* capped mode only; [||] otherwise *)
    mutable total : int;
  }

  let store cap =
    { cap; items = []; ring = (if cap > 0 then Array.make cap None else [||]); total = 0 }

  let store_add s x =
    if s.cap > 0 then s.ring.(s.total mod s.cap) <- Some x else s.items <- x :: s.items;
    s.total <- s.total + 1

  let store_dropped s = if s.cap > 0 then max 0 (s.total - s.cap) else 0

  (* Still-retained items recorded after the first [n], oldest first.
     The newest-first list makes that suffix a prefix: take (total - n)
     from the head, then restore order. *)
  let store_since s ~n =
    if s.cap = 0 then begin
      let rec take acc k = function
        | x :: rest when k > 0 -> take (x :: acc) (k - 1) rest
        | _ -> acc
      in
      take [] (s.total - n) s.items
    end
    else begin
      let start = max n (max 0 (s.total - s.cap)) in
      List.init (max 0 (s.total - start)) (fun i -> Option.get s.ring.((start + i) mod s.cap))
    end

  let store_list s = store_since s ~n:0

  let store_clear s =
    s.items <- [];
    if s.cap > 0 then Array.fill s.ring 0 s.cap None;
    s.total <- 0

  type mem = { sp : Span.t store; ev : Event.t store }
  type obs = { on_span : Span.t -> unit; on_event : Event.t -> unit }

  type t = Noop | Memory of mem | Observer of obs | Tee of t list

  let noop = Noop

  let memory ?capacity () =
    let cap =
      match capacity with
      | None -> 0
      | Some c when c > 0 -> c
      | Some c -> invalid_arg (Printf.sprintf "Trace.Sink.memory: capacity %d not positive" c)
    in
    Memory { sp = store cap; ev = store cap }

  let observer ~on_span ~on_event = Observer { on_span; on_event }

  let tee sinks =
    match List.filter (function Noop -> false | _ -> true) sinks with
    | [] -> Noop
    | [ s ] -> s
    | ss -> Tee ss

  let enabled = function Noop -> false | Memory _ | Observer _ | Tee _ -> true

  let rec span ?(args = []) t ~cat ~name ~start ~stop =
    match t with
    | Noop -> ()
    | Memory m -> store_add m.sp { Span.name; cat; start; stop; args }
    | Observer o -> o.on_span { Span.name; cat; start; stop; args }
    | Tee ss -> List.iter (fun s -> span ~args s ~cat ~name ~start ~stop) ss

  let rec instant ?(args = []) t ~cat ~name ~at =
    match t with
    | Noop -> ()
    | Memory m -> store_add m.ev { Event.name; cat; at; args }
    | Observer o -> o.on_event { Event.name; cat; at; args }
    | Tee ss -> List.iter (fun s -> instant ~args s ~cat ~name ~at) ss

  (* Read-side accessors on a tee delegate to its first memory child:
     the tee reads as the recording it carries, with any observers
     (monitors) transparent. *)
  let rec first_mem = function
    | Noop | Observer _ -> None
    | Memory m -> Some m
    | Tee ss -> List.find_map first_mem ss

  let spans t = match first_mem t with Some m -> store_list m.sp | None -> []
  let events t = match first_mem t with Some m -> store_list m.ev | None -> []
  let span_count t = match first_mem t with Some m -> m.sp.total | None -> 0
  let event_count t = match first_mem t with Some m -> m.ev.total | None -> 0
  let dropped_spans t = match first_mem t with Some m -> store_dropped m.sp | None -> 0
  let dropped_events t = match first_mem t with Some m -> store_dropped m.ev | None -> 0
  let spans_since t n = match first_mem t with Some m -> store_since m.sp ~n | None -> []
  let events_since t n = match first_mem t with Some m -> store_since m.ev ~n | None -> []

  let rec clear = function
    | Noop | Observer _ -> ()
    | Memory m ->
        store_clear m.sp;
        store_clear m.ev
    | Tee ss -> List.iter clear ss
end

(* ------------------------------------------------------------------ *)
(* Online protocol-invariant monitor                                    *)

module Monitor = struct
  type violation =
    | Undo_after_data of { txn : string; node : int; at : Time.t }
    | Fence_not_last of { node : int; convoy : string; at : Time.t }
    | Epoch_regressed of { node : int; prev : int64; next : int64; at : Time.t }
    | Convoy_interleaved of { node : int; convoy : string; intruder : string; at : Time.t }
    | Checkpoint_split_convoy of { node : int; convoy : string; at : Time.t }
    | Cross_shard_in_partitioned of { xid : string; at : Time.t }

  type alert = { violation : violation; event : Event.t }

  (* One commit unit in flight to one node: an eager commit's
     propagate/segmeta/fence burst or a group-commit convoy.  [u_rank]
     is the highest chunk class seen so far — undo(0) < data(1) <
     segmeta(2) < fence(3); the protocol promises the classes arrive in
     that order with the fence strictly last. *)
  type unit_state = { u_key : string; mutable u_rank : int }

  type node_state = {
    mutable open_unit : unit_state option;
    mutable closed : string list; (* recently fenced unit keys, newest first, capped *)
    mutable last_fence_epoch : int64 option;
    data_seen : (string, unit) Hashtbl.t; (* txns whose commit data reached this node *)
  }

  type t = {
    nodes : (int, node_state) Hashtbl.t;
    mutable alerts : alert list; (* newest first *)
    mutable nalerts : int;
    mutable nevents : int;
    mutable phase : string;
        (* the cluster phase as declared by [cluster]/[phase_switch]
           instants; cross-shard commits are only legal while it reads
           "single_master".  Streams without phase instants stay in the
           default partitioned phase, where any cross-shard commit is a
           violation — exactly the STAR rule. *)
    on_alert : alert -> unit;
  }

  let closed_keep = 16

  let create ?(on_alert = fun _ -> ()) () =
    {
      nodes = Hashtbl.create 8;
      alerts = [];
      nalerts = 0;
      nevents = 0;
      phase = "partitioned";
      on_alert;
    }

  let node_state t n =
    match Hashtbl.find_opt t.nodes n with
    | Some s -> s
    | None ->
        let s =
          { open_unit = None; closed = []; last_fence_epoch = None; data_seen = Hashtbl.create 64 }
        in
        Hashtbl.add t.nodes n s;
        s

  let raise_alert t violation (ev : Event.t) =
    let a = { violation; event = ev } in
    t.alerts <- a :: t.alerts;
    t.nalerts <- t.nalerts + 1;
    t.on_alert a

  let rank_of ~op ~tag =
    match op with
    | "commit_propagate" -> Some 1
    | "commit_segmeta" -> Some 2
    | "commit_fence" -> Some 3
    | "flush_convoy" -> (
        match tag with
        | Some "undo" -> Some 0
        | Some "data" -> Some 1
        | Some "segmeta" -> Some 2
        | Some "fence" -> Some 3
        | _ -> None)
    | _ -> None

  let txns_of args =
    match List.assoc_opt "txn" args with
    | Some id -> [ id ]
    | None -> (
        match List.assoc_opt "batch" args with
        | Some s -> String.split_on_char '+' s
        | None -> [])

  let close_unit ns key =
    ns.open_unit <- None;
    ns.closed <- key :: ns.closed;
    if List.length ns.closed > closed_keep then
      ns.closed <- List.filteri (fun i _ -> i < closed_keep) ns.closed

  (* A write piece attributed to a commit unit: enforce unit ordering,
     fence finality and epoch monotonicity on this node's stream. *)
  let unit_piece t ns ~node ~key ~rank (ev : Event.t) =
    (match ns.open_unit with
    | Some u when u.u_key <> key ->
        raise_alert t (Convoy_interleaved { node; convoy = u.u_key; intruder = key; at = ev.at }) ev;
        ns.open_unit <- Some { u_key = key; u_rank = rank }
    | Some _ -> ()
    | None ->
        if List.mem key ns.closed then
          raise_alert t (Fence_not_last { node; convoy = key; at = ev.at }) ev
        else ns.open_unit <- Some { u_key = key; u_rank = rank });
    (match ns.open_unit with
    | Some u when u.u_key = key ->
        if rank = 0 && u.u_rank >= 1 then begin
          let txn = String.concat "+" (txns_of ev.args) in
          raise_alert t (Undo_after_data { txn; node; at = ev.at }) ev
        end;
        if rank > u.u_rank then u.u_rank <- rank
    | _ -> ());
    if rank >= 1 && rank <= 2 then
      List.iter (fun id -> Hashtbl.replace ns.data_seen id ()) (txns_of ev.args);
    if rank = 3 then begin
      (match List.assoc_opt "epoch" ev.args with
      | Some e -> (
          match Int64.of_string_opt e with
          | Some next ->
              (match ns.last_fence_epoch with
              | Some prev when next <= prev ->
                  raise_alert t (Epoch_regressed { node; prev; next; at = ev.at }) ev
              | _ -> ());
              ns.last_fence_epoch <-
                Some (match ns.last_fence_epoch with Some p when p > next -> p | _ -> next)
          | None -> ())
      | None -> ());
      close_unit ns key
    end

  let piece t (ev : Event.t) =
    match List.assoc_opt "node" ev.args with
    | None -> () (* unattributed traffic: nothing to check against *)
    | Some node_s -> (
        match int_of_string_opt node_s with
        | None -> ()
        | Some node -> (
            let ns = node_state t node in
            let op = Option.value ~default:"" (List.assoc_opt "op" ev.args) in
            match rank_of ~op ~tag:(List.assoc_opt "tag" ev.args) with
            | Some rank ->
                let key =
                  Option.value ~default:("op:" ^ op) (List.assoc_opt "convoy" ev.args)
                in
                unit_piece t ns ~node ~key ~rank ev
            | None ->
                if op = "remote_undo" then
                  List.iter
                    (fun id ->
                      if Hashtbl.mem ns.data_seen id then
                        raise_alert t (Undo_after_data { txn = id; node; at = ev.at }) ev)
                    (txns_of ev.args);
                (* Free traffic (resync, metadata push, checkpoint
                   streaming) legally reaches a node only between
                   commit units — or after a crash truncated one, which
                   is exactly when the truncated unit must stop being
                   "open".  Either way the unit is over; forget it
                   without declaring it fenced. *)
                ns.open_unit <- None))

  let ckpt_cut t (ev : Event.t) =
    Hashtbl.iter
      (fun node ns ->
        match ns.open_unit with
        | Some u ->
            raise_alert t (Checkpoint_split_convoy { node; convoy = u.u_key; at = ev.at }) ev
        | None -> ())
      t.nodes

  let event t (ev : Event.t) =
    t.nevents <- t.nevents + 1;
    match (ev.cat, ev.name) with
    | "sci", _ -> piece t ev
    | "ckpt", "cut" -> ckpt_cut t ev
    | "cluster", "phase_switch" -> (
        match List.assoc_opt "phase" ev.args with
        | Some p -> t.phase <- p
        | None -> ())
    | "cluster", "cross_commit" ->
        if t.phase <> "single_master" then begin
          let xid = Option.value ~default:"?" (List.assoc_opt "xid" ev.args) in
          raise_alert t (Cross_shard_in_partitioned { xid; at = ev.at }) ev
        end
    | "supervisor", "mirror_lost" | "mirror", "dropped" -> (
        (* A transfer to this node may have been cut short by its loss:
           close the unit rather than flag the interruption. *)
        match Option.bind (List.assoc_opt "node" ev.args) int_of_string_opt with
        | Some node -> (node_state t node).open_unit <- None
        | None -> ())
    | _ -> ()

  (* A recovery span means a fresh engine took over: transaction ids
     restart and every in-flight unit died with the old primary, so the
     per-txn and per-unit state resets.  Fence epochs survive — the
     recovered epoch is strictly above every fenced one. *)
  let span t (s : Span.t) =
    if s.cat = "recovery" then
      Hashtbl.iter
        (fun _ ns ->
          ns.open_unit <- None;
          ns.closed <- [];
          Hashtbl.reset ns.data_seen)
        t.nodes

  let sink t = Sink.observer ~on_span:(span t) ~on_event:(event t)
  let alerts t = List.rev t.alerts
  let alert_count t = t.nalerts
  let events_seen t = t.nevents

  let describe = function
    | Undo_after_data { txn; node; at } ->
        Printf.sprintf "undo for txn %s reached node %d after its data (t=%.3fus)" txn node
          (Time.to_us at)
    | Fence_not_last { node; convoy; at } ->
        Printf.sprintf "piece for unit %s on node %d after its epoch fence (t=%.3fus)" convoy
          node (Time.to_us at)
    | Epoch_regressed { node; prev; next; at } ->
        Printf.sprintf "fence epoch regressed on node %d: %Ld after %Ld (t=%.3fus)" node next
          prev (Time.to_us at)
    | Convoy_interleaved { node; convoy; intruder; at } ->
        Printf.sprintf "unit %s interleaved into open unit %s on node %d (t=%.3fus)" intruder
          convoy node (Time.to_us at)
    | Checkpoint_split_convoy { node; convoy; at } ->
        Printf.sprintf "checkpoint cut landed inside open unit %s on node %d (t=%.3fus)" convoy
          node (Time.to_us at)
    | Cross_shard_in_partitioned { xid; at } ->
        Printf.sprintf "cross-shard transaction %s committed inside a partitioned phase (t=%.3fus)"
          xid (Time.to_us at)

  let pp_alert ppf a = Format.pp_print_string ppf (describe a.violation)
end

(* ------------------------------------------------------------------ *)
(* Causal cross-node timeline reconstruction                            *)

module Causal = struct
  (* One step of a transaction's cross-node story: a span, or one SCI
     piece carrying its packet count. *)
  type hop = {
    h_start : Time.t;
    h_stop : Time.t;
    h_node : int option; (* None: on the primary itself *)
    h_what : string;
    h_detail : string;
    h_pkts : int; (* 0 for span hops *)
  }

  type timeline = { c_txn : string; c_hops : hop list (* oldest first *) }

  let arg_int k args = Option.bind (List.assoc_opt k args) int_of_string_opt

  let detail_of args =
    let keep = [ "mirror"; "epoch"; "convoy"; "reason"; "tag"; "mode" ] in
    List.filter_map
      (fun k -> Option.map (fun v -> k ^ "=" ^ v) (List.assoc_opt k args))
      keep
    |> String.concat " "

  let build ~spans ~events =
    let tbl : (string, hop list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    let add args ~start ~stop ~what ~pkts =
      match Monitor.txns_of args with
      | [] -> ()
      | txns ->
          let hop =
            {
              h_start = start;
              h_stop = stop;
              h_node = arg_int "node" args;
              h_what = what;
              h_detail = detail_of args;
              h_pkts = pkts;
            }
          in
          List.iter
            (fun txn ->
              match Hashtbl.find_opt tbl txn with
              | Some r -> r := hop :: !r
              | None ->
                  Hashtbl.add tbl txn (ref [ hop ]);
                  order := txn :: !order)
            txns
    in
    List.iter
      (fun (s : Span.t) -> add s.args ~start:s.start ~stop:s.stop ~what:(s.cat ^ "/" ^ s.name) ~pkts:0)
      spans;
    List.iter
      (fun (e : Event.t) ->
        let what =
          match List.assoc_opt "op" e.args with
          | Some op -> "pkt/" ^ op
          | None -> e.cat ^ "/" ^ e.name
        in
        (* Only SCI pieces carry packet counts. *)
        let pkts k = Option.value ~default:0 (arg_int k e.args) in
        add e.args ~start:e.at ~stop:e.at ~what ~pkts:(pkts "full64" + pkts "part16"))
      events;
    List.rev_map
      (fun txn ->
        let hops =
          List.rev !(Hashtbl.find tbl txn)
          |> List.stable_sort (fun a b -> compare a.h_start b.h_start)
        in
        { c_txn = txn; c_hops = hops })
      !order

  let find timelines ~txn = List.find_opt (fun c -> c.c_txn = txn) timelines

  let render_hop h =
    let site = match h.h_node with Some n -> Printf.sprintf "node %d" n | None -> "primary" in
    let pkts = if h.h_pkts > 1 then Printf.sprintf " x%d pkts" h.h_pkts else "" in
    let detail = if h.h_detail = "" then "" else " [" ^ h.h_detail ^ "]" in
    Printf.sprintf "  %10.3f..%10.3f us  %-9s %s%s%s" (Time.to_us h.h_start)
      (Time.to_us h.h_stop) site h.h_what pkts detail

  let render c =
    String.concat "\n"
      (Printf.sprintf "txn %s: %d hops" c.c_txn (List.length c.c_hops)
      :: List.map render_hop c.c_hops)

  let render_all timelines = String.concat "\n" (List.map render timelines)
end

(* ------------------------------------------------------------------ *)
(* JSON string escaping, shared by the exporters                        *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Gauges and time series                                               *)

module Gauge = struct
  type t = { name : string; live : bool; mutable v : int; mutable hwm : int }

  (* All gauge handles obtained from a disabled timeseries are this
     shared dummy, so instrumentation sites pay one branch when
     telemetry is off — the same contract as Sink.noop. *)
  let dummy = { name = ""; live = false; v = 0; hwm = 0 }
  let name g = g.name
  let value g = g.v
  let hwm g = g.hwm

  let set g x =
    if g.live then begin
      g.v <- x;
      if x > g.hwm then g.hwm <- x
    end

  let add g dx =
    if g.live then begin
      let x = g.v + dx in
      g.v <- x;
      if x > g.hwm then g.hwm <- x
    end
end

module Timeseries = struct
  type sample = { at : Time.t; values : (string * int) list }

  type live = {
    gauges : (string, Gauge.t) Hashtbl.t;
    mutable samples : sample list; (* newest first *)
    mutable nsamples : int;
    mutable probes : (Time.t -> unit) list; (* registration order, newest first *)
  }

  type t = Noop | Live of live

  let noop = Noop

  let create () =
    Live { gauges = Hashtbl.create 32; samples = []; nsamples = 0; probes = [] }

  let enabled = function Noop -> false | Live _ -> true

  let gauge t name =
    match t with
    | Noop -> Gauge.dummy
    | Live l -> (
        match Hashtbl.find_opt l.gauges name with
        | Some g -> g
        | None ->
            let g = { Gauge.name; live = true; v = 0; hwm = 0 } in
            Hashtbl.add l.gauges name g;
            g)

  let set t name x = Gauge.set (gauge t name) x
  let add t name dx = Gauge.add (gauge t name) dx
  let value t name = Gauge.value (gauge t name)
  let hwm t name = Gauge.hwm (gauge t name)

  let names t =
    match t with
    | Noop -> []
    | Live l -> Hashtbl.fold (fun n _ acc -> n :: acc) l.gauges [] |> List.sort compare

  let on_sample t f = match t with Noop -> () | Live l -> l.probes <- f :: l.probes

  (* A derivative gauge: at each sample, [name] becomes the per-second
     rate of change of [source] since the previous sample (0 on the
     first).  Register rates after the probes that refresh [source] so
     they see fresh values — probes run in registration order. *)
  let rate t ~name ~source =
    match t with
    | Noop -> ()
    | Live _ ->
        let out = gauge t name in
        let src = gauge t source in
        let prev = ref None in
        on_sample t (fun at ->
            (match !prev with
            | Some (at0, v0) when at > at0 ->
                let per_s = float_of_int (Gauge.value src - v0) /. Time.to_s (at - at0) in
                Gauge.set out (int_of_float (Float.round per_s))
            | _ -> Gauge.set out 0);
            prev := Some (at, Gauge.value src))

  let sample t ~at =
    match t with
    | Noop -> ()
    | Live l ->
        List.iter (fun f -> f at) (List.rev l.probes);
        let values =
          Hashtbl.fold (fun n g acc -> (n, g.Gauge.v) :: acc) l.gauges []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        l.samples <- { at; values } :: l.samples;
        l.nsamples <- l.nsamples + 1

  let samples t = match t with Noop -> [] | Live l -> List.rev l.samples
  let sample_count = function Noop -> 0 | Live l -> l.nsamples

  let to_json t =
    let b = Buffer.create 256 in
    Buffer.add_string b "{\"gauges\":{";
    (match t with
    | Noop -> ()
    | Live l ->
        let gs =
          Hashtbl.fold (fun n g acc -> (n, g) :: acc) l.gauges []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        List.iteri
          (fun i (n, (g : Gauge.t)) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "\"%s\":{\"value\":%d,\"hwm\":%d}" (json_escape n) g.v
                 g.hwm))
          gs);
    Buffer.add_string b "}}";
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Per-phase breakdown                                                  *)

type phase_stat = { phase : string; count : int; total_us : float; mean_us : float }

let breakdown ?cat spans =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s : Span.t) ->
      if match cat with Some c -> s.cat = c | None -> true then begin
        let count, total =
          match Hashtbl.find_opt tbl s.name with Some ct -> ct | None -> (0, 0.)
        in
        if count = 0 then order := s.name :: !order;
        Hashtbl.replace tbl s.name (count + 1, total +. Span.duration_us s)
      end)
    spans;
  List.rev_map
    (fun phase ->
      let count, total_us = Hashtbl.find tbl phase in
      { phase; count; total_us; mean_us = total_us /. float_of_int count })
    !order
  |> List.sort (fun a b -> compare b.total_us a.total_us)

(* ------------------------------------------------------------------ *)
(* Tail attribution                                                     *)

module Tail = struct
  (* Cheap always-on tail attribution: one log2 histogram per [txn]
     phase (and per (phase, mirror) pair), one for end-to-end latency,
     plus a worst-K exemplar reservoir with threshold admission — a
     transaction is retained, with its full span/event window, only
     when it is slower than the fastest exemplar already held.  Like
     every trace-layer component this is a pure observer: it reads
     completed spans and never touches the clock, and when the engine's
     sink is [noop] nothing reaches it at all. *)

  type exemplar = {
    e_seq : int;  (* measured-iteration index, 0-based *)
    e_latency_us : float;
    e_spans : Span.t list;
    e_events : Event.t list;
  }

  type t = {
    k : int;
    latency : Stats.Histogram.t;
    by_phase : (string, Stats.Histogram.t) Hashtbl.t;
    by_phase_mirror : (string * int, Stats.Histogram.t) Hashtbl.t;
    mutable phase_order : string list; (* first-seen, reversed *)
    mutable worst : exemplar list; (* ascending latency, length <= k *)
    mutable seq : int;
    sub : int;
  }

  let create ?(k = 8) ?(sub_buckets = 16) () =
    if k <= 0 then invalid_arg "Tail.create";
    {
      k;
      latency = Stats.Histogram.create ~sub_buckets ();
      by_phase = Hashtbl.create 16;
      by_phase_mirror = Hashtbl.create 16;
      phase_order = [];
      worst = [];
      seq = 0;
      sub = sub_buckets;
    }

  let hist_of t name =
    match Hashtbl.find_opt t.by_phase name with
    | Some h -> h
    | None ->
        let h = Stats.Histogram.create ~sub_buckets:t.sub () in
        Hashtbl.add t.by_phase name h;
        t.phase_order <- name :: t.phase_order;
        h

  let mirror_hist_of t key =
    match Hashtbl.find_opt t.by_phase_mirror key with
    | Some h -> h
    | None ->
        let h = Stats.Histogram.create ~sub_buckets:t.sub () in
        Hashtbl.add t.by_phase_mirror key h;
        h

  let note_span t (s : Span.t) =
    if s.Span.cat = "txn" then begin
      let d = Span.duration_us s in
      Stats.Histogram.add (hist_of t s.name) d;
      match Option.bind (List.assoc_opt "mirror" s.args) int_of_string_opt with
      | None -> ()
      | Some m -> Stats.Histogram.add (mirror_hist_of t (s.name, m)) d
    end

  let sink t = Sink.observer ~on_span:(note_span t) ~on_event:(fun _ -> ())

  let threshold_us t =
    if List.length t.worst < t.k then 0.
    else match t.worst with [] -> 0. | e :: _ -> e.e_latency_us

  let rec insert_asc e = function
    | [] -> [ e ]
    | x :: rest when x.e_latency_us < e.e_latency_us -> x :: insert_asc e rest
    | l -> e :: l

  (* Feed one measured transaction: its end-to-end latency always, its
     span window into the per-phase histograms, and — when it beats the
     admission threshold — the full window into the reservoir.  The
     window is aggregated per phase before it reaches the histograms: a
     transaction that enters a phase several times (one [remote_undo]
     per declared range per mirror, one [commit_propagate] per mirror)
     contributes its *total* time in that phase as one sample, so the
     per-phase p99s stack up against the end-to-end p99 — that is what
     lets `explain` attribute the tail to named phases.  Use either
     this (measurement loops, where the caller scopes the
     per-transaction window by sink cursors) or {!sink} (live streams,
     per-span samples), not both, or phases double-count. *)
  let observe t ~latency_us ~spans ~events =
    let seq = t.seq in
    t.seq <- seq + 1;
    Stats.Histogram.add t.latency latency_us;
    let totals = Hashtbl.create 8 in
    let mirror_totals = Hashtbl.create 8 in
    let bump tbl key d =
      Hashtbl.replace tbl key (d +. try Hashtbl.find tbl key with Not_found -> 0.)
    in
    List.iter
      (fun (s : Span.t) ->
        if s.Span.cat = "txn" then begin
          let d = Span.duration_us s in
          bump totals s.name d;
          match Option.bind (List.assoc_opt "mirror" s.args) int_of_string_opt with
          | None -> ()
          | Some m -> bump mirror_totals (s.name, m) d
        end)
      spans;
    (* Walk the window again so phases register in first-seen stream
       order (hash-table order would shuffle the report). *)
    List.iter
      (fun (s : Span.t) ->
        match Hashtbl.find_opt totals s.Span.name with
        | None -> ()
        | Some d ->
            Hashtbl.remove totals s.Span.name;
            Stats.Histogram.add (hist_of t s.Span.name) d)
      spans;
    Hashtbl.iter
      (fun key d -> Stats.Histogram.add (mirror_hist_of t key) d)
      mirror_totals;
    if List.length t.worst < t.k then
      t.worst <- insert_asc { e_seq = seq; e_latency_us = latency_us; e_spans = spans; e_events = events } t.worst
    else
      match t.worst with
      | fastest :: rest when latency_us > fastest.e_latency_us ->
          t.worst <-
            insert_asc
              { e_seq = seq; e_latency_us = latency_us; e_spans = spans; e_events = events }
              rest
      | _ -> ()

  let count t = t.seq
  let latency t = t.latency

  let phases t =
    List.rev t.phase_order |> List.map (fun n -> (n, Hashtbl.find t.by_phase n))

  let phase_hist t name = Hashtbl.find_opt t.by_phase name

  let mirror_phases t =
    Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.by_phase_mirror []
    |> List.sort (fun ((a, i), _) ((b, j), _) -> compare (a, i) (b, j))

  let phase_p99s t =
    phases t
    |> List.filter_map (fun (n, h) ->
           if Stats.Histogram.count h = 0 then None
           else Some (n, Stats.Histogram.percentile h 99.))

  let exemplars t = List.rev t.worst (* slowest first *)

  let timelines (e : exemplar) = Causal.build ~spans:e.e_spans ~events:e.e_events

  (* The transaction id an exemplar's window belongs to, from the first
     span that names one — for labelling flows and reports. *)
  let exemplar_txn (e : exemplar) =
    List.find_map (fun (s : Span.t) -> List.assoc_opt "txn" s.Span.args) e.e_spans
end

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)

module Export = struct
  let escape = json_escape

  let args_json args =
    if args = [] then ""
    else
      let fields =
        List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)) args
      in
      Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)

  (* Spans that carry a [mirror] arg get their own track so per-mirror
     phases (remote_undo, commit_propagate, commit_fence) line up under
     the mirror they hit. *)
  let tid_of args =
    match List.assoc_opt "mirror" args with
    | Some m -> ( match int_of_string_opt m with Some i -> i + 2 | None -> 1)
    | None -> 1

  let chrome_json ?(series = []) ?(flows = []) ~spans ~events () =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    let first = ref true in
    let sep () = if !first then first := false else Buffer.add_char b ',' in
    List.iter
      (fun (s : Span.t) ->
        sep ();
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d%s}"
             (escape s.name) (escape s.cat) (Time.to_us s.start) (Span.duration_us s)
             (tid_of s.args) (args_json s.args)))
      spans;
    List.iter
      (fun (e : Event.t) ->
        sep ();
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,\"pid\":1,\"tid\":%d%s}"
             (escape e.name) (escape e.cat) (Time.to_us e.at) (tid_of e.args)
             (args_json e.args)))
      events;
    (* Gauge samples become ph:"C" counter events; Perfetto renders one
       counter track per (pid, name). *)
    List.iter
      (fun (s : Timeseries.sample) ->
        List.iter
          (fun (name, v) ->
            sep ();
            Buffer.add_string b
              (Printf.sprintf
                 "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"args\":{\"value\":%d}}"
                 (escape name) (Time.to_us s.at) v))
          s.values)
      series;
    (* Named flow events: one flow per exemplar timeline, stepping
       through its hops so the worst-K outliers read as arrows across
       the primary and mirror tracks.  Packet hops on node n land on
       the mirror track tid n+1 (mirror m lives on node m+1, and
       mirror spans use tid m+2). *)
    List.iteri
      (fun i (name, (tl : Causal.timeline)) ->
        let emit ph extra at tid =
          sep ();
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"%s\"%s,\"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
               (escape name) ph extra (i + 1) (Time.to_us at) tid)
        in
        let tid_of_hop (h : Causal.hop) =
          match h.Causal.h_node with Some n -> n + 1 | None -> 1
        in
        match tl.Causal.c_hops with
        | [] -> ()
        | [ h ] ->
            emit "s" "" h.Causal.h_start (tid_of_hop h);
            emit "f" ",\"bp\":\"e\"" h.Causal.h_stop (tid_of_hop h)
        | hops ->
            let last = List.length hops - 1 in
            List.iteri
              (fun j (h : Causal.hop) ->
                let ph, extra =
                  if j = 0 then ("s", "")
                  else if j = last then ("f", ",\"bp\":\"e\"")
                  else ("t", "")
                in
                emit ph extra h.Causal.h_start (tid_of_hop h))
              hops)
      flows;
    Buffer.add_string b "],\"displayTimeUnit\":\"ns\"}";
    Buffer.contents b

  let rec mkdir_p dir =
    if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end

  let chrome_json_to_file ?series ?flows ~path ~spans ~events () =
    mkdir_p (Filename.dirname path);
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (chrome_json ?series ?flows ~spans ~events ()))

  let phase_csv_header = [ "phase"; "count"; "total (us)"; "mean (us)"; "share" ]

  let phase_csv_rows stats =
    let grand = List.fold_left (fun acc p -> acc +. p.total_us) 0. stats in
    List.map
      (fun p ->
        [
          p.phase;
          string_of_int p.count;
          Printf.sprintf "%.2f" p.total_us;
          Printf.sprintf "%.3f" p.mean_us;
          (if grand > 0. then Printf.sprintf "%.1f%%" (100. *. p.total_us /. grand) else "-");
        ])
      stats

  let timeseries_csv_header names = "t (us)" :: names

  let timeseries_csv_rows ~names samples =
    List.map
      (fun (s : Timeseries.sample) ->
        Printf.sprintf "%.3f" (Time.to_us s.at)
        :: List.map
             (fun n -> string_of_int (Option.value ~default:0 (List.assoc_opt n s.values)))
             names)
      samples
end
