open Sim
module Txn_intf = Txn_intf
module Layout = Layout
module Iset = Iset
module Node = Cluster.Node
module Client = Netram.Client
module Remote_segment = Netram.Remote_segment
module Imap = Map.Make (Int)

(* Global 64-byte line numbers (a segment's [chunk0] plus the line
   within it) to whatever a line maps to. *)
module Lines = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash l = l
end)

let src = Logs.Src.create "perseas" ~doc:"PERSEAS transaction library"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  undo_capacity : int;
  max_segments : int;
  optimized_memcpy : bool;
  redundancy_elision : bool;
  namespace : string;
  group_commit : int;
      (* commits per shared flush; 1 = eager per-commit propagation
         (the single-txn-era behaviour, byte-identical to it) *)
  retired_limit : int;
      (* max retired-epoch entries kept; beyond it the oldest retiree
         is evicted (it falls back to a full resync on return) *)
}

let default_config =
  {
    undo_capacity = (1024 * 1024) + (64 * 1024);
    max_segments = 64;
    optimized_memcpy = true;
    redundancy_elision = true;
    namespace = Layout.default_namespace;
    group_commit = 1;
    retired_limit = 64;
  }

exception Undo_overflow
exception All_mirrors_lost
exception Conflict of { younger : int; older : int }
exception Double_begin of string

type mirror = {
  m_client : Client.t;
  m_meta : Remote_segment.t;
  m_undo : Remote_segment.t;
  mutable m_dirty : Remote_segment.t option;
      (* the dirty-chunk list, exported while a checkpoint target is
         attached *)
  mutable m_segs : Remote_segment.t array; (* the segments' copies, by segment index *)
  mutable m_alive : bool;
  mutable m_dest : Sci.Nic.dest;
      (* the handles above as one destination (window order at
         [meta_win]): what every plan built for all mirrors runs on *)
}

type segment = {
  seg_name : string;
  index : int;
  size : int;
  local : Mem.Segment.t;
  chunk0 : int; (* global index of the segment's first chunk *)
}

(* The engine's counters, bumped in place; [stats] hands callers a
   copy.  [degraded_us] is filled in only on that copy, from the
   degraded-window clock reads. *)
type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborts : int;
  mutable set_ranges : int;
  mutable undo_bytes_logged : int;
  mutable elided_undo_bytes : int;
  mutable undo_hwm_bytes : int;
  mutable coalesced_ranges : int;
  mutable commit_bytes_saved : int;
  mutable local_copy_bytes : int;
  mutable mirrors_lost : int;
  mutable mirrors_recruited : int;
  mutable resync_bytes : int;
  mutable degraded_us : int;
  mutable conflicts : int;
  mutable group_flushes : int;
  mutable group_commit_txns : int;
  mutable checkpoints_taken : int;
  mutable checkpoint_bytes : int;
  mutable log_truncated_bytes : int;
}

type resync_mode = Full | Incremental
type resync_report = { mode : resync_mode; bytes_copied : int; full_bytes : int }

(* One committed (or conservatively, rolled-back) range: the epoch tag
   is the epoch value from which a mirror must have confirmed to NOT
   need this range re-copied.  Entries are kept oldest-first and their
   tags never decrease along the queue. *)
type dirty_range = { d_epoch : int64; d_seg : int; d_off : int; d_len : int }

type checkpoint_source = Ram_source of Netram.Server.t

(* Where fuzzy checkpoints go: two alternating slot exports plus a
   directory word in a remote server's RAM. *)
type ckpt_target = {
  c_client : Client.t;
  c_dir : Remote_segment.t;
  c_slots : Remote_segment.t array; (* the two alternating slots *)
  c_scratch : Mem.Segment.t; (* local staging for slot headers and fence words *)
}

(* An in-progress fuzzy checkpoint: segment images stream to the slot
   between commits; [p_started_epoch] bounds the dirty ranges that must
   be re-shipped at finalize time. *)
type ckpt_progress = {
  p_gen : int64;
  p_slot : int;
  p_started_epoch : int64;
  mutable p_shipped : int; (* bytes of the segment concatenation shipped so far *)
  p_total : int;
}

type t = {
  config : config;
  cluster : Cluster.t;
  clk : Clock.t; (* the cluster's clock and NIC, resolved once *)
  nic : Sci.Nic.t;
  local_id : int;
  mutable mirrors : mirror array;
  mutable segs : segment list; (* creation order, reversed *)
  mutable meta_local : Mem.Segment.t;
  mutable undo_local : Mem.Segment.t;
  mutable epoch : int64;
  mutable ready : bool;
  mutable open_txns : txn list; (* newest first *)
  mutable staged : txn list; (* group-commit queue, commit order *)
  owners : txn Lines.t;
      (* line -> the in-flight (open or staged) transaction whose
         write-set touches it; kept only while [indexed] *)
  mutable indexed : bool;
      (* two or more transactions have been in flight since the engine
         last quiesced *)
  mutable next_txn_id : int;
  mutable undo_tail : int; (* shared undo log tail, all transactions *)
  mutable flushing : bool; (* a group flush is propagating right now *)
  mutable convoy_seq : int;
      (* Serial number for group-commit convoys, carried as a causal
         tag on their packets.  Trace metadata only: never read by the
         protocol, so on/off runs stay byte-identical. *)
  mutable hook : (unit -> unit) option;
  mutable sink : Trace.Sink.t;
      (* Pure observer: span emission reads the clock but never
         advances it, so sink on/off runs are byte-identical. *)
  mutable tel : Trace.Timeseries.t;
      (* Gauge layer, same observer contract as the sink. *)
  mutable g_undo_tail : Trace.Gauge.t;
  mutable g_group_size : Trace.Gauge.t;
  mutable repl_target : int;
      (* Mirror count below which the database counts as degraded; the
         supervisor aligns this with its own target. *)
  mutable degraded_since : Time.t option;
  mutable degraded : Time.t; (* closed degraded windows, summed *)
  retired : (int, int64) Hashtbl.t;
      (* node id -> last epoch confirmed on that ex-mirror, the basis
         for incremental resync when the node's server comes back *)
  dirty : dirty_range Queue.t; (* oldest first, tags nondecreasing *)
  mutable dirty_floor : int64;
      (* the log is complete for resyncs "since e" iff e >= dirty_floor *)
  mutable ckpt_target : ckpt_target option;
  mutable ckpt_inflight : ckpt_progress option;
  mutable ckpt_gen : int64; (* newest published generation; 0 = none *)
  mutable ckpt_summary : Iset.t Imap.t;
      (* per-segment union of the dirty entries truncated at the last
         cut: [owed] unions it in whenever the requested base
         predates the truncation, keeping the dirty log complete for
         incremental resync even after checkpoints empty it *)
  mutable ckpt_summary_upto : int64; (* entries tagged <= this live in the summary *)
  mutable dirty_local : Mem.Segment.t option;
      (* local staging of the dirty-chunk list, the source of every
         entry store; allocated when a target is first attached *)
  mutable dirty_base : int64;
      (* the cut the mirrors' lists count from; 0 while no list is
         kept (no target, or none published yet) *)
  mutable dirty_pos : int; (* entries appended since [dirty_base] *)
  mutable dirty_listed : Bytes.t;
      (* one bit per chunk: named by an entry since [dirty_base], so
         never appended again *)
  st : stats;
}

and range = {
  r_seg : segment;
  r_off : int;
  r_len : int;
  mutable staging_off : int; (* payload offset in undo staging; compaction moves it *)
  mutable r_tag : int64; (* epoch currently written in the record header *)
}

and txn_state =
  | Open
  | Staged (* committed, waiting in the group-commit queue *)
  | Doomed (* lost a conflict to a younger declarer; rolled back, Conflict pending *)
  | Closed

and txn = {
  owner : t;
  t_id : int; (* begin order: smaller = older, the conflict-policy age *)
  t_client : string;
  mutable ranges : range list; (* logged undo fragments, newest first *)
  mutable wset : Iset.t Imap.t; (* write-set index: coalesced declared ranges per segment *)
  mutable claimed : int list; (* the lines this transaction owns in [owners] *)
  mutable staged_exact : (segment * int * int) list; (* exact runs, cached when staged *)
  mutable declared : int; (* set_range calls this transaction, pre-coalescing *)
  mutable declared_bytes : int;
  mutable state : txn_state;
  mutable doomed_by : int; (* id of the older txn whose declaration doomed this one *)
}

type mirror_info = { node_id : int; alive : bool }

(* Small fixed bookkeeping costs of the user-level library calls. *)
let t_begin = Time.us 0.1
let t_set_range = Time.us 0.05
let t_commit = Time.us 0.2

let clock t = t.clk
let local_node t = Cluster.node t.cluster t.local_id
let local_dram t = Node.dram (local_node t)
let params t = Sci.Nic.params t.nic

let charge_local_copy t len =
  Clock.advance (clock t) (Sci.Model.local_copy (params t) len);
  t.st.local_copy_bytes <- t.st.local_copy_bytes + len

(* Wiring one sink here also attaches it to the cluster's NIC, so a
   single call traces the whole stack: transaction phases from this
   module, piece events from {!Sci.Nic}, rpc events from
   {!Netram.Client}. *)
let set_sink t sink =
  t.sink <- sink;
  Sci.Nic.set_sink t.nic sink

let sink t = t.sink

(* Record [f]'s virtual-time extent as one span.  The span is emitted
   even when [f] raises (mirror loss mid-phase) so per-phase sums still
   equal end-to-end latency on failure paths.  Like {!with_ctx}'s tags,
   the span's [args] are a thunk, forced before [f] runs and only while
   the sink is live, so with tracing off the strings it would build are
   never built.  The closures [f] and [args] themselves are allocated by
   every caller, traced or not: the per-transaction calls (begin,
   set_range, the local undo copy, write, commit and the eager phases)
   therefore test the sink first and stamp their spans with
   {!span_from}, building nothing while it is off. *)
let traced t ?(cat = "txn") ?args ~name f =
  if not (Trace.Sink.enabled t.sink) then f ()
  else begin
    let args = Option.map (fun a -> a ()) args in
    let start = Clock.now (clock t) in
    match f () with
    | r ->
        Trace.Sink.span ?args t.sink ~cat ~name ~start ~stop:(Clock.now (clock t));
        r
    | exception e ->
        Trace.Sink.span ?args t.sink ~cat ~name ~start ~stop:(Clock.now (clock t));
        raise e
  end

(* Stamp a span from [start] to now.  For bodies that cannot raise, with
   the sink tested by the caller, so that neither the span's arguments
   nor a closure is built while it is off. *)
let span_from t ?(cat = "txn") ?args ~name start =
  Trace.Sink.span ?args t.sink ~cat ~name ~start ~stop:(Clock.now (clock t))

(* Bracket [f] with causal-context tags on the cluster NIC: every
   piece instant emitted inside [f] then carries the operation /
   transaction / convoy / destination-node identity, which is what
   {!Trace.Causal} stitches cross-node timelines from and what
   {!Trace.Monitor} checks protocol ordering against.  The tag list is
   a thunk forced only while the sink is live; the caller still
   allocates it and [f], so the eager phases call [with_ctx] only under
   a live sink.  The tags are trace metadata the transfer machinery
   never reads, preserving byte-identity. *)
let with_ctx t args f =
  if not (Trace.Sink.enabled t.sink) then f ()
  else begin
    let nic = t.nic in
    let saved = Sci.Nic.ctx nic in
    Sci.Nic.set_ctx nic (args ());
    Fun.protect ~finally:(fun () -> Sci.Nic.set_ctx nic saved) f
  end

let alloc_local t ?(align = 64) size what =
  match Mem.Allocator.alloc (Node.allocator (local_node t)) ~align size with
  | Some seg -> seg
  | None -> failwith (Printf.sprintf "Perseas: out of local memory for %s (%d bytes)" what size)

let meta_size t = Layout.meta_size ~max_segments:t.config.max_segments

(* ------------------------------------------------------------------ *)
(* Mirror-set plumbing                                                  *)

let mirror_node_id m = Node.id (Netram.Server.node (Client.server m.m_client))
let live_mirror_list t = Array.to_list t.mirrors |> List.filter (fun m -> m.m_alive)
let live_mirrors t = List.map mirror_node_id (live_mirror_list t)

let mirrors t =
  Array.to_list t.mirrors |> List.map (fun m -> { node_id = mirror_node_id m; alive = m.m_alive })

let mirror_count t = Array.fold_left (fun n m -> if m.m_alive then n + 1 else n) 0 t.mirrors

(* Degraded-time accounting: a window opens when the live-mirror count
   falls below [repl_target] and closes when it recovers.  Pure
   bookkeeping on clock reads — never advances the clock. *)
let note_replication t =
  let now = Clock.now (clock t) in
  if mirror_count t < t.repl_target then begin
    if t.degraded_since = None then t.degraded_since <- Some now
  end
  else
    match t.degraded_since with
    | Some since ->
        t.degraded <- t.degraded + (now - since);
        t.degraded_since <- None
    | None -> ()

let degraded_total t =
  t.degraded
  + (match t.degraded_since with Some since -> Clock.now (clock t) - since | None -> Time.zero)

let set_replication_target t n =
  if n <= 0 then invalid_arg "Perseas.set_replication_target: target must be positive";
  t.repl_target <- n;
  note_replication t

let replication_target t = t.repl_target

let stats t = { t.st with degraded_us = Time.to_ns (degraded_total t) / 1000 }

let stats_fields (s : stats) =
  [
    ("begun", s.begun);
    ("committed", s.committed);
    ("aborts", s.aborts);
    ("set_ranges", s.set_ranges);
    ("undo_bytes_logged", s.undo_bytes_logged);
    ("elided_undo_bytes", s.elided_undo_bytes);
    ("undo_hwm_bytes", s.undo_hwm_bytes);
    ("coalesced_ranges", s.coalesced_ranges);
    ("commit_bytes_saved", s.commit_bytes_saved);
    ("local_copy_bytes", s.local_copy_bytes);
    ("mirrors_lost", s.mirrors_lost);
    ("mirrors_recruited", s.mirrors_recruited);
    ("resync_bytes", s.resync_bytes);
    ("degraded_us", s.degraded_us);
    ("conflicts", s.conflicts);
    ("group_flushes", s.group_flushes);
    ("group_commit_txns", s.group_commit_txns);
    ("checkpoints_taken", s.checkpoints_taken);
    ("checkpoint_bytes", s.checkpoint_bytes);
    ("log_truncated_bytes", s.log_truncated_bytes);
  ]

(* Like set_sink, one call wires the whole stack: the cluster NIC's
   packet gauges plus this module's sample-time probe, which publishes
   every {!stats_fields} counter and the state the counters do not
   hold.  Gauges observe; they never advance the clock or touch the
   packet stream. *)
let set_telemetry t tel =
  t.tel <- tel;
  Sci.Nic.set_telemetry t.nic tel;
  t.g_undo_tail <- Trace.Timeseries.gauge tel "perseas.undo_tail";
  t.g_group_size <- Trace.Timeseries.gauge tel "perseas.group_commit_size";
  Trace.Timeseries.on_sample tel (fun _at ->
      List.iter (fun (k, v) -> Trace.Timeseries.set tel ("perseas." ^ k) v) (stats_fields (stats t));
      Trace.Timeseries.set tel "perseas.epoch" (Int64.to_int t.epoch);
      Trace.Timeseries.set tel "perseas.live_mirrors" (mirror_count t);
      Trace.Timeseries.set tel "perseas.open_txns" (List.length t.open_txns);
      Trace.Timeseries.set tel "perseas.staged_txns" (List.length t.staged);
      Trace.Timeseries.set tel "perseas.dirty_log" (Queue.length t.dirty);
      Trace.Timeseries.set tel "perseas.retired_entries" (Hashtbl.length t.retired))

let telemetry t = t.tel

(* Retire a mirror from the live set, remembering the last epoch it is
   known to have fully confirmed (t.epoch: the epoch counter only
   advances after every mirror acknowledged the commit point, so at the
   instant of a drop it is exactly the victim's last sound state).  A
   later [recruit_mirror] of the same server uses this as the
   incremental-resync base. *)
let retire_mirror t m =
  m.m_alive <- false;
  Hashtbl.replace t.retired (mirror_node_id m) t.epoch;
  (* The table is bounded: churn used to grow it one entry per lost
     mirror forever.  Past the limit the entry with the lowest epoch is
     evicted — its owner was gone longest, so it loses the least if it
     has to take a full resync on return. *)
  while Hashtbl.length t.retired > t.config.retired_limit do
    let victim =
      Hashtbl.fold
        (fun id e acc ->
          match acc with Some (_, be) when be <= e -> acc | _ -> Some (id, e))
        t.retired None
    in
    match victim with Some (id, _) -> Hashtbl.remove t.retired id | None -> ()
  done;
  note_replication t

let retired_count t = Hashtbl.length t.retired

(* A mirror that fails during a remote operation is dropped from the
   set (degraded mode); when the last one goes, the library refuses to
   continue — committing without any mirror would silently forfeit
   recoverability.  Only liveness errors ({!Client.Unreachable}: node
   down or rebooted) are degraded-mode events; anything else — bounds
   violations, stale protocol state — is a bug and propagates. *)
let drop_mirror t m msg =
  retire_mirror t m;
  t.st.mirrors_lost <- t.st.mirrors_lost + 1;
  (* Tell the stream a transfer to this node may have been cut short:
     the protocol monitor uses this to close the node's open commit
     unit instead of flagging the interruption as a violation. *)
  if Trace.Sink.enabled t.sink then
    Trace.Sink.instant t.sink ~cat:"mirror" ~name:"dropped" ~at:(Clock.now (clock t))
      ~args:[ ("node", string_of_int (mirror_node_id m)) ];
  Log.warn (fun k ->
      k "mirror on node %d lost (%s); continuing degraded with %d mirror(s)" (mirror_node_id m)
        msg (mirror_count t))

(* Run [f i m] on each live mirror [m], [i] its index, dropping one
   whose server turns out unreachable; [each_live_mirror] then insists
   that one is left. *)
let on_live_mirrors t f =
  let mirrors = t.mirrors in
  for i = 0 to Array.length mirrors - 1 do
    let m = mirrors.(i) in
    if m.m_alive then try f i m with Client.Unreachable msg -> drop_mirror t m msg
  done

let each_live_mirror t f =
  on_live_mirrors t f;
  if mirror_count t = 0 then raise All_mirrors_lost

(* A mirror's windows, in the order of its destination's bases: the
   metadata, the undo log, each segment's copy by index, then the
   dirty-chunk list while one is exported.  Window [i] has the same
   length on every mirror, so a plan built once runs on all of them. *)
let meta_win = 0
let undo_win = 1
let seg_win seg = 2 + seg.index
let list_win t = 2 + List.length t.segs

let mirror_dest client ~meta ~undo ~segs ~list =
  Client.dest client
    (Array.concat [ [| meta; undo |]; segs; (match list with Some h -> [| h |] | None -> [||]) ])

let mirror client ~meta ~undo ~segs ~list =
  {
    m_client = client;
    m_meta = meta;
    m_undo = undo;
    m_dirty = list;
    m_segs = segs;
    m_alive = true;
    m_dest = mirror_dest client ~meta ~undo ~segs ~list;
  }

(* Re-derive [m]'s destination after its handles changed. *)
let rebind m =
  m.m_dest <- mirror_dest m.m_client ~meta:m.m_meta ~undo:m.m_undo ~segs:m.m_segs ~list:m.m_dirty

(* ------------------------------------------------------------------ *)
(* Initialisation                                                       *)

let fresh_mirror client ~config =
  let meta_bytes = Layout.meta_size ~max_segments:config.max_segments in
  let meta = Client.malloc client ~name:(Layout.meta_name ~ns:config.namespace) ~size:meta_bytes in
  let undo = Client.malloc client ~name:(Layout.undo_name ~ns:config.namespace) ~size:config.undo_capacity in
  mirror client ~meta ~undo ~segs:[||] ~list:None

(* The one constructor.  [epoch] 0 is an engine whose remote database
   is not yet published ({!init_remote_db} publishes epoch 1); a
   recovered engine starts at its post-repair epoch, which is also where
   its dirty log begins.  Metadata staging and the undo log are
   allocated after the record, in that order. *)
let make ~config ~cluster ~local_id ~epoch mirrors =
  let t =
    {
      config;
      cluster;
      clk = Cluster.clock cluster;
      nic = Cluster.nic cluster;
      local_id;
      mirrors;
      segs = [];
      meta_local = Mem.Segment.v ~base:0 ~len:1 (* placeholder, set below *);
      undo_local = Mem.Segment.v ~base:0 ~len:1;
      epoch;
      ready = epoch > 0L;
      open_txns = [];
      staged = [];
      owners = Lines.create 64;
      indexed = false;
      next_txn_id = 1;
      undo_tail = 0;
      flushing = false;
      convoy_seq = 0;
      hook = None;
      sink = Trace.Sink.noop;
      tel = Trace.Timeseries.noop;
      g_undo_tail = Trace.Timeseries.gauge Trace.Timeseries.noop "";
      g_group_size = Trace.Timeseries.gauge Trace.Timeseries.noop "";
      repl_target = Array.length mirrors;
      degraded_since = None;
      degraded = Time.zero;
      retired = Hashtbl.create 8;
      dirty = Queue.create ();
      dirty_floor = Int64.max 1L epoch;
      ckpt_target = None;
      ckpt_inflight = None;
      ckpt_gen = 0L;
      ckpt_summary = Imap.empty;
      ckpt_summary_upto = 0L;
      dirty_local = None;
      dirty_base = 0L;
      dirty_pos = 0;
      dirty_listed = Bytes.empty;
      st =
        {
          begun = 0;
          committed = 0;
          aborts = 0;
          set_ranges = 0;
          undo_bytes_logged = 0;
          elided_undo_bytes = 0;
          undo_hwm_bytes = 0;
          coalesced_ranges = 0;
          commit_bytes_saved = 0;
          local_copy_bytes = 0;
          mirrors_lost = 0;
          mirrors_recruited = 0;
          resync_bytes = 0;
          degraded_us = 0;
          conflicts = 0;
          group_flushes = 0;
          group_commit_txns = 0;
          checkpoints_taken = 0;
          checkpoint_bytes = 0;
          log_truncated_bytes = 0;
        };
    }
  in
  t.meta_local <- alloc_local t (meta_size t) "metadata staging";
  t.undo_local <- alloc_local t config.undo_capacity "undo log";
  t

let init_replicated ?(config = default_config) clients =
  if clients = [] then invalid_arg "Perseas.init_replicated: at least one mirror required";
  if config.undo_capacity < 4096 then invalid_arg "Perseas.init: undo_capacity too small";
  if config.max_segments <= 0 then invalid_arg "Perseas.init: max_segments must be positive";
  if config.group_commit < 1 then invalid_arg "Perseas.init: group_commit must be >= 1";
  if config.retired_limit < 1 then invalid_arg "Perseas.init: retired_limit must be >= 1";
  if not (Layout.valid_namespace config.namespace) then invalid_arg "Perseas.init: invalid namespace";
  let first = List.hd clients in
  let cluster = Client.cluster first in
  let local_id = Node.id (Client.local_node first) in
  List.iter
    (fun c ->
      if Client.cluster c != cluster then invalid_arg "Perseas.init: clients span different clusters";
      if Node.id (Client.local_node c) <> local_id then
        invalid_arg "Perseas.init: clients must share the local node")
    clients;
  let server_ids = List.map (fun c -> Node.id (Netram.Server.node (Client.server c))) clients in
  if List.length (List.sort_uniq compare server_ids) <> List.length server_ids then
    invalid_arg "Perseas.init: duplicate mirror nodes";
  make ~config ~cluster ~local_id ~epoch:0L
    (Array.of_list (List.map (fun c -> fresh_mirror c ~config) clients))

let init ?config client = init_replicated ?config [ client ]

let client t = (Array.get t.mirrors 0).m_client
let config t = t.config
let cluster t = t.cluster
let remote_ready t = t.ready
let epoch t = t.epoch
let segments t = List.rev t.segs
let segment t name = List.find_opt (fun s -> s.seg_name = name) t.segs
let segment_name s = s.seg_name
let segment_size s = s.size

let malloc t ~name ~size =
  if t.ready then failwith "Perseas.malloc: database already initialised";
  if size <= 0 then invalid_arg "Perseas.malloc: size must be positive";
  if List.length t.segs >= t.config.max_segments then failwith "Perseas.malloc: too many segments";
  if segment t name <> None then failwith (Printf.sprintf "Perseas.malloc: segment %S exists" name);
  let export_name = Layout.db_export_name ~ns:t.config.namespace name in
  let local = alloc_local t size (Printf.sprintf "segment %S" name) in
  Array.iter
    (fun m ->
      m.m_segs <- Array.append m.m_segs [| Client.malloc m.m_client ~name:export_name ~size |];
      rebind m)
    t.mirrors;
  let chunk0 = snd (Layout.chunk_bases (List.map (fun s -> s.size) t.segs)) in
  let seg = { seg_name = name; index = List.length t.segs; size; local; chunk0 } in
  t.segs <- seg :: t.segs;
  seg

(* Run a transfer plan, giving the fault-injection hook a chance to
   "crash the node" before each packet goes out. *)
let run_plan t plan = Sci.Nic.run ?before:t.hook t.nic plan

(* A copy of [len] bytes of local DRAM at [src_off] to [off] of window
   [win] ([win_len] bytes long) of whichever mirror it runs on. *)
let piece t ~tag ~widen ~win ~win_len ~off ~src_off ~len =
  Sci.Nic.piece t.nic ~tag ~widen ~win ~win_len ~off ~src:(local_dram t) ~src_off ~len

let plan_of t pieces = Sci.Nic.plan_pieces t.nic pieces

let plan_to t ~widen ~win ~win_len ~off ~src_off ~len =
  plan_of t [ piece t ~tag:"bulk" ~widen ~win ~win_len ~off ~src_off ~len ]

(* Send [plans] to mirror [m], in order, through the hook.  The liveness
   check comes first, so a dead or rebooted mirror raises
   [Client.Unreachable] before any of its copies moves. *)
let rec run_on t m = function
  | [] -> ()
  | plan :: rest ->
      Sci.Nic.run_to ?before:t.hook t.nic m.m_dest plan;
      run_on t m rest

let send t m plans =
  Client.check m.m_client;
  run_on t m plans

(* The plans copying runs [(seg, off, len)] of the local database to
   every mirror's copies. *)
let plans_for t runs =
  List.map
    (fun (seg, off, len) ->
      plan_to t ~widen:t.config.optimized_memcpy ~win:(seg_win seg) ~win_len:seg.size ~off
        ~src_off:(Mem.Segment.base seg.local + off) ~len)
    runs

(* The dirty-chunk list is kept only while a checkpoint target is
   attached, and written only once a checkpoint has been published:
   until then [dirty_base] is zero, no entry is stored and the base word
   stays zero, keeping every meta byte identical to the pre-checkpoint
   engine. *)
let tracking t = t.ckpt_target <> None
let listing t = t.dirty_base <> 0L

(* A metadata image: magic, [epoch] and the segment table.  [base] is
   the dirty-list base word, which only the mirrors' copy carries. *)
let meta_image ?(base = 0L) t epoch =
  let b = Bytes.make (meta_size t) '\000' in
  Layout.write_meta_magic b;
  Layout.write_epoch b epoch;
  Layout.write_nsegs b (List.length t.segs);
  Layout.write_ckpt_base b base;
  List.iter
    (fun s -> Layout.write_table_entry b ~index:s.index ~name:s.seg_name ~size:s.size)
    t.segs;
  b

let write_meta_staging t =
  Mem.Image.write_bytes (local_dram t) ~off:(Mem.Segment.base t.meta_local)
    (meta_image ~base:t.dirty_base t t.epoch)

let push_meta t =
  write_meta_staging t;
  let plan =
    plan_to t ~widen:t.config.optimized_memcpy ~win:meta_win ~win_len:(meta_size t) ~off:0
      ~src_off:(Mem.Segment.base t.meta_local) ~len:(meta_size t)
  in
  each_live_mirror t (fun _ m ->
      with_ctx t
        (fun () -> [ ("op", "push_meta"); ("node", string_of_int (mirror_node_id m)) ])
        (fun () -> send t m [ plan ]))

let init_remote_db t =
  if t.ready then failwith "Perseas.init_remote_db: already initialised";
  List.iter
    (fun seg ->
      let plans = plans_for t [ (seg, 0, seg.size) ] in
      each_live_mirror t (fun _ m -> send t m plans))
    t.segs;
  t.epoch <- 1L;
  push_meta t;
  t.ready <- true

(* The commit point: remotely overwrite the 8-byte epoch word on every
   mirror.  Each store is one SCI packet (atomic); mirrors whose epoch
   write was cut short by a crash are reconciled by recovery, which
   trusts the highest epoch among the survivors. *)
let stage_epoch t new_epoch =
  Mem.Image.write_u64 (local_dram t) (Mem.Segment.base t.meta_local + Layout.epoch_offset) new_epoch

let plan_epoch_write t =
  plan_to t ~widen:true ~win:meta_win ~win_len:(meta_size t) ~off:Layout.epoch_offset
    ~src_off:(Mem.Segment.base t.meta_local + Layout.epoch_offset)
    ~len:8

(* Dirty-list maintenance.  Every commit appends, at the list's tail,
   one entry per run of chunks its write-set touched that the list does
   not name yet, tagged with its epoch, and ships them to every
   mirror's list BEFORE the commit fence: a crash between the entry stores and the fence leaves entries
   of an epoch that never committed, which recovery reads as "written
   after the cut" — a conservative mirror fetch, never a stale
   adoption.  The entries are contiguous, so each mirror takes them in
   one store.  A full list takes no more entries: recovery, finding no
   entry at or below the base, adopts nothing. *)
let dirty_list_size = Layout.dirty_capacity * Layout.dirty_entry_size

let dirty_staging t =
  match t.dirty_local with
  | Some l -> Mem.Segment.base l
  | None -> failwith "Perseas: dirty-chunk list used without a checkpoint target"

(* The chunk runs [(first, count)] covering [runs] — [(seg, off, len)]
   triples in segment-index order — ascending, adjacent runs merged. *)
let chunk_runs runs =
  let merged =
    List.fold_left
      (fun acc (seg, off, len) ->
        let first = seg.chunk0 + (off / Layout.chunk_bytes) in
        let last = seg.chunk0 + ((off + len - 1) / Layout.chunk_bytes) in
        match acc with
        | (f, l) :: rest when first <= l + 1 -> (f, max l last) :: rest
        | _ -> (first, last) :: acc)
      [] runs
  in
  List.rev_map (fun (f, l) -> (f, l - f + 1)) merged

(* An append: the list position its entries start at, and the runs
   they name — those that still fit. *)
type append = { a_pos : int; a_runs : (int * int) list }

(* Chunk sets, one bit per chunk number. *)
let bit_get b c = Char.code (Bytes.get b (c lsr 3)) land (1 lsl (c land 7)) <> 0

let bit_put b c v =
  let i = c lsr 3 and m = 1 lsl (c land 7) in
  let x = Char.code (Bytes.get b i) in
  Bytes.set b i (Char.unsafe_chr (if v then x lor m else x land lnot m))

let listed t c = bit_get t.dirty_listed c

(* The parts of chunk runs [runs] not yet listed, as runs. *)
let unlisted t runs =
  List.concat_map
    (fun (first, count) ->
      let acc = ref [] and start = ref (-1) in
      for c = first to first + count - 1 do
        if listed t c then begin
          if !start >= 0 then acc := (!start, c - !start) :: !acc;
          start := -1
        end
        else if !start < 0 then start := c
      done;
      if !start >= 0 then acc := (!start, first + count - !start) :: !acc;
      List.rev !acc)
    runs

let stage_append t e a =
  if a.a_runs <> [] then begin
    let image = local_dram t and base = dirty_staging t in
    List.iteri
      (fun i (first, count) ->
        Mem.Image.write_bytes image
          ~off:(base + ((a.a_pos + i) * Layout.dirty_entry_size))
          (Layout.dirty_entry ~epoch:e ~first ~count);
        for c = first to first + count - 1 do
          bit_put t.dirty_listed c true
        done)
      a.a_runs;
    t.dirty_pos <- a.a_pos + List.length a.a_runs
  end

(* The convoy piece storing append [a] from the local staging into
   every mirror's list. *)
let append_pieces t a =
  match a.a_runs with
  | [] -> []
  | runs ->
      let off = a.a_pos * Layout.dirty_entry_size in
      [
        piece t ~tag:"segmeta" ~widen:false ~win:(list_win t) ~win_len:dirty_list_size ~off
          ~src_off:(dirty_staging t + off)
          ~len:(List.length runs * Layout.dirty_entry_size);
      ]

let union_by_seg = Imap.union (fun _ a b -> Some (Iset.union a b))
let seg_of_index t index = List.find (fun s -> s.index = index) t.segs
let seg_runs seg intervals acc =
  List.fold_left (fun acc (off, len) -> (seg, off, len) :: acc) acc intervals

(* A write-set's coalesced [(seg, off, len)] runs in segment-index
   order, byte for byte (no packet snapping): what the dirty log records
   — incremental resync widens at the NIC layer anyway — and what the
   dirty-chunk list appends from. *)
let exact_runs t wset =
  List.rev
    (Imap.fold
       (fun index iset acc -> seg_runs (seg_of_index t index) (Iset.intervals iset) acc)
       wset [])

(* Runs in segment-index then offset order, each pair of neighbours in
   one segment for which [joins end start] holds replaced by their
   hull; [runs] itself when no pair joins. *)
let join_runs joins runs =
  let rec any = function
    | (s, o, l) :: ((s', o', _) :: _ as rest) -> (s == s' && joins (o + l) o') || any rest
    | _ -> false
  in
  let rec go acc s lo hi = function
    | (s', o, l) :: rest when s' == s && joins hi o -> go acc s lo (max hi (o + l)) rest
    | (s', o, l) :: rest -> go ((s, lo, hi - lo) :: acc) s' o (o + l) rest
    | [] -> List.rev ((s, lo, hi - lo) :: acc)
  in
  match runs with
  | (s, o, l) :: rest when any runs -> go [] s o (o + l) rest
  | _ -> runs

(* Everything a commit reads off its exact runs: their bytes, and the
   data propagation list.  The propagation list is the exact runs,
   except that under [optimized_memcpy] runs whose 64-byte SCI line
   spans touch are glued into one exact hull (the rule of {!Iset.glue})
   so they stream as a single fuller burst.  Shipping a hull's gap
   bytes is safe for the same reason the NIC-level widening is: bytes
   outside the written ranges are identical on both sides, and
   recovery's undo replay restores any early-propagated declared byte.
   Batch members are line-disjoint by the conflict rules, so a
   cross-transaction hull never ships a byte an open transaction has
   dirtied. *)
type wset_runs = {
  bytes : int;
  exact : (segment * int * int) list;
  data : (segment * int * int) list;
}

let touch_lines = Iset.touch ~align:64

let runs_of t exact =
  {
    bytes = List.fold_left (fun acc (_, _, len) -> acc + len) 0 exact;
    exact;
    data = (if t.config.optimized_memcpy then join_runs touch_lines exact else exact);
  }

let wset_runs t wset = runs_of t (exact_runs t wset)

(* A line-disjoint batch's runs, from its members' exact runs — cached
   by [commit] on a staged member, walked on an open one (a dry run's
   candidate): sorted, with byte-adjacent runs of different members
   merged, they are the batch write-set's coalesced runs. *)
let batch_runs t batch =
  let member txn = match txn.state with Staged -> txn.staged_exact | _ -> exact_runs t txn.wset in
  List.concat_map member batch
  |> List.sort (fun (s, o, _) (s', o', _) ->
         if s.index <> s'.index then Int.compare s.index s'.index else Int.compare o o')
  |> join_runs (fun hi o -> hi >= o)
  |> runs_of t

(* The append exact runs [exact] make: the runs of chunks they touch
   that the list does not name yet — nothing unless the list is kept. *)
let list_append t exact =
  let runs = if not (listing t) then [] else unlisted t (chunk_runs exact) in
  { a_pos = t.dirty_pos; a_runs = List.filteri (fun i _ -> t.dirty_pos + i < Layout.dirty_capacity) runs }

(* The line-ownership index.  In-flight write-sets are pairwise
   line-disjoint (the conflict rules in [set_range] keep them so), so
   each line has at most one owner; a transaction records the lines it
   claims so that closing or dooming it releases exactly those. *)
let line seg off = seg.chunk0 + (off / Layout.chunk_bytes)

(* Claim [seg]'s lines under [\[off, off+len)] for [txn].  A line
   already owned is [txn]'s own: any other owner has been flushed or
   doomed by then. *)
let claim txn seg ~off ~len =
  let owners = txn.owner.owners in
  for l = line seg off to line seg (off + len - 1) do
    if not (Lines.mem owners l) then begin
      Lines.add owners l txn;
      txn.claimed <- l :: txn.claimed
    end
  done

let release txn =
  List.iter (Lines.remove txn.owner.owners) txn.claimed;
  txn.claimed <- []

(* Start indexing when a second transaction comes in flight: the one
   transaction that ran alone declared without claiming, so its lines
   are claimed from its write-set now. *)
let fill_index t =
  List.iter
    (fun txn -> List.iter (fun (seg, off, len) -> claim txn seg ~off ~len) (exact_runs t txn.wset))
    (t.open_txns @ t.staged);
  t.indexed <- true

let begin_transaction ?(client = "default") t =
  if not t.ready then failwith "Perseas.begin_transaction: call init_remote_db first";
  if t.flushing then failwith "Perseas.begin_transaction: commit propagation in flight";
  (* Double-begin from one client is a typed error; concurrent begins
     from distinct clients are legal.  A client whose previous
     transaction is merely Staged (committed, queued for the next
     flush) may begin its next one — that pipelining is the point. *)
  (match List.find_opt (fun x -> x.t_client = client) t.open_txns with
  | Some _ -> raise (Double_begin client)
  | None -> ());
  let start = Clock.now (clock t) in
  Clock.advance (clock t) t_begin;
  if Trace.Sink.enabled t.sink then span_from t ~name:"begin" ~args:[ ("client", client) ] start;
  if (not t.indexed) && (t.open_txns <> [] || t.staged <> []) then fill_index t;
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  let txn =
    {
      owner = t;
      t_id = id;
      t_client = client;
      ranges = [];
      wset = Imap.empty;
      claimed = [];
      staged_exact = [];
      declared = 0;
      declared_bytes = 0;
      state = Open;
      doomed_by = id;
    }
  in
  t.open_txns <- txn :: t.open_txns;
  t.st.begun <- t.st.begun + 1;
  txn

(* [Doomed] surfaces as the typed [Conflict] the loser would have seen
   had it been the declarer: the rollback already happened at doom
   time, so surfacing only closes the handle. *)
let check_open txn op =
  match txn.state with
  | Open -> ()
  | Doomed ->
      txn.state <- Closed;
      raise (Conflict { younger = txn.t_id; older = txn.doomed_by })
  | Staged -> failwith (Printf.sprintf "Perseas.%s: transaction already committed (staged)" op)
  | Closed -> failwith (Printf.sprintf "Perseas.%s: transaction is closed" op)

let check_seg_range seg ~off ~len op =
  if off < 0 || len < 0 || off + len > seg.size then
    invalid_arg
      (Printf.sprintf "Perseas.%s: [%d,+%d) outside segment %S of %d bytes" op off len seg.seg_name
         seg.size)

(* Closing the last in-flight transaction quiesces the engine: the
   shared undo log's tail rewinds to 0 exactly when nothing live
   references it, which in sequential use is after every transaction —
   the single-txn-era behaviour, byte for byte — and the line index,
   empty once every owner has released its lines, stops being kept. *)
let close txn =
  let t = txn.owner in
  txn.state <- Closed;
  release txn;
  t.open_txns <- List.filter (fun x -> x != txn) t.open_txns;
  t.staged <- List.filter (fun x -> x != txn) t.staged;
  if t.open_txns = [] && t.staged = [] then begin
    t.undo_tail <- 0;
    t.indexed <- false;
    Trace.Gauge.set t.g_undo_tail 0
  end

(* The transaction's write-set index: one interval set per touched
   segment, keyed by segment index.  Maintained for every transaction
   regardless of [redundancy_elision] — [covered] and the dirty-log
   compaction read it — while elision additionally consults it to skip
   redundant undo logging and to coalesce commit propagation. *)
let txn_iset txn seg =
  match Imap.find seg.index txn.wset with s -> s | exception Not_found -> Iset.empty

(* Record a write-set's {!exact_runs} in the dirty log so an
   ex-mirror can later be resynced incrementally.  [tag] is the lowest
   epoch whose confirmation implies a mirror already holds these bytes;
   tags never decrease along the queue.  The log is bounded: past
   [dirty_log_limit] entries the oldest are popped and [dirty_floor]
   rises to their tag, shrinking the window in which incremental resync
   is possible (older returners get a full copy instead). *)
let dirty_log_limit = 4096

let note_dirty t ~tag runs =
  List.iter
    (fun (seg, off, len) ->
      Queue.push { d_epoch = tag; d_seg = seg.index; d_off = off; d_len = len } t.dirty)
    runs;
  while Queue.length t.dirty > dirty_log_limit do
    t.dirty_floor <- Int64.max t.dirty_floor (Queue.pop t.dirty).d_epoch
  done

(* Restore every declared range from the local undo log, newest first
   (local memory copies only). *)
let rollback_local txn =
  let t = txn.owner in
  let image = local_dram t in
  List.iter
    (fun r ->
      Mem.Image.blit ~src:image ~src_off:(Mem.Segment.base t.undo_local + r.staging_off)
        ~dst:image ~dst_off:(Mem.Segment.base r.r_seg.local + r.r_off) ~len:r.r_len;
      charge_local_copy t r.r_len)
    txn.ranges;
  (* A mirror dropped mid-operation may hold partial writes from this
     transaction even though it rolled back locally: conservatively
     mark the ranges dirty at the epoch the next commit will stamp so
     an incremental resync of that mirror re-copies them. *)
  note_dirty t ~tag:(Int64.add t.epoch 1L) (exact_runs t txn.wset)

(* Losing the last mirror mid-operation must not wedge the library:
   the handler of All_mirrors_lost around a transaction's remote phases
   rolls the local image back to the pre-transaction state, closes the
   transaction, and only then lets All_mirrors_lost reach the caller —
   begin_transaction / attach_mirror work again immediately. *)
let abandon txn =
  let t = txn.owner in
  traced t ~name:"abort" ~args:(fun () -> [ ("reason", "all_mirrors_lost") ]) (fun () ->
      rollback_local txn);
  t.st.aborts <- t.st.aborts + 1;
  close txn;
  Log.warn (fun k ->
      k "all mirrors lost mid-%s: transaction rolled back locally; attach a fresh mirror"
        (if txn.ranges = [] then "operation" else "transaction"));
  raise All_mirrors_lost

(* Undo-slot stride for this engine.  Eager mode keeps the seed's
   64-byte-aligned slots: each record travels to the remote logs on its
   own, so starting every push on an SCI line is what keeps large
   records streaming as Full64 packets.  Group mode packs slots on the
   32-byte stride instead: the batch travels as one coalesced chain per
   flush, re-packed from remote offset 0, where only total chain bytes
   matter and the eager stride's padding would be pure wire cost.  The
   local log, the shipped chain and the recovery walker must all agree
   on the stride; they do because it is a pure function of
   [config.group_commit] and recovery receives the engine's config. *)
let undo_slot_of t =
  if t.config.group_commit <= 1 then Layout.undo_slot else Layout.undo_slot_packed

(* A logged record, header and payload, pushed to the same slot of
   every mirror's undo log. *)
let plan_undo t r =
  let slot = r.staging_off - Layout.undo_header_size in
  plan_to t ~widen:t.config.optimized_memcpy ~win:undo_win ~win_len:t.config.undo_capacity ~off:slot
    ~src_off:(Mem.Segment.base t.undo_local + slot)
    ~len:(Layout.undo_header_size + r.r_len)

(* The eager protocol's remote phases (Figure 3, steps 2 and 3): undo
   records to the remote logs, then at commit the data propagation, the
   dirty-list append (while the list is kept) and the epoch fence.
   Each phase's plans are built once, for every mirror: [commit] runs
   them and [commit_packets] counts the same ones, so the two cannot
   drift. *)
type eager_phase =
  | Undo of range list
  | Propagate of (segment * int * int) list
  | Segmeta of append
  | Fence

let phase_plans t = function
  | Undo recs -> List.map (plan_undo t) recs
  | Propagate runs -> plans_for t runs
  | Segmeta a -> [ plan_of t (append_pieces t a) ]
  | Fence -> [ plan_epoch_write t ]

(* The commit unit: records whose epoch tag went stale while concurrent
   peers committed are re-pushed whole (a joiner recruited
   mid-transaction has no payload for them yet, so a header-only push
   would leave its log torn); sequentially tags are always current and
   that phase is absent.  The propagation list is the write-set's data
   runs [w] with elision, and without it the raw declared ranges,
   oldest first — the differential-testing oracle. *)
let commit_phases txn w =
  let t = txn.owner in
  let stale = List.filter (fun r -> r.r_tag <> t.epoch) txn.ranges in
  let runs =
    if t.config.redundancy_elision then w.data
    else List.rev_map (fun r -> (r.r_seg, r.r_off, r.r_len)) txn.ranges
  in
  let tail =
    match list_append t w.exact with
    | { a_runs = []; _ } -> [ Propagate runs; Fence ]
    | a -> [ Propagate runs; Segmeta a; Fence ]
  in
  if stale = [] then tail else Undo stale :: tail

(* Run one phase on every live mirror, mirror by mirror, from plans
   built once; while a sink is live, one span per mirror.  The commit
   phases to one node form one "convoy" (key [t<id>]) as far as the
   causal ordering invariants go. *)
let run_phase txn phase =
  let t = txn.owner in
  let plans = phase_plans t phase in
  each_live_mirror t (fun i m ->
      if not (Trace.Sink.enabled t.sink) then send t m plans
      else
        let op =
          match phase with
          | Undo _ -> "remote_undo"
          | Propagate _ -> "commit_propagate"
          | Segmeta _ -> "commit_segmeta"
          | Fence -> "commit_fence"
        in
        traced t ~name:op ~args:(fun () -> [ ("mirror", string_of_int i) ]) (fun () ->
            with_ctx t
              (fun () ->
                let id = string_of_int txn.t_id in
                let convoy = match phase with Undo _ -> [] | _ -> [ ("convoy", "t" ^ id) ] in
                let epoch =
                  match phase with
                  | Fence -> [ ("epoch", Int64.to_string (Int64.add t.epoch 1L)) ]
                  | _ -> []
                in
                [ ("op", op); ("txn", id) ]
                @ convoy
                @ [ ("mirror", string_of_int i); ("node", string_of_int (mirror_node_id m)) ]
                @ epoch)
              (fun () -> send t m plans)))

(* Append one undo record — the before-image of [seg[off, off+len)] —
   to the local log and push it to every remote log (Figure 3, steps 1
   and 2).  The caller has already reserved the log space. *)
let log_undo_record txn seg ~off ~len =
  let t = txn.owner in
  let record_len = Layout.undo_header_size + len in
  let image = local_dram t in
  let slot = t.undo_tail in
  let r =
    { r_seg = seg; r_off = off; r_len = len; staging_off = slot + Layout.undo_header_size; r_tag = t.epoch }
  in
  let start = Clock.now (clock t) in
  let at = Mem.Segment.base t.undo_local + slot in
  Mem.Image.blit ~src:image ~src_off:(Mem.Segment.base seg.local + off) ~dst:image
    ~dst_off:(at + Layout.undo_header_size) ~len;
  Layout.write_undo_header image ~off:at { Layout.epoch = t.epoch; seg_index = seg.index; off; len };
  charge_local_copy t record_len;
  if Trace.Sink.enabled t.sink then span_from t ~name:"local_undo" start;
  (* Eager mode pipelines each record to the remote logs as it is cut
     (Figure 3, step 2).  Group mode defers: the whole live log ships
     as one convoy per mirror at flush time, so full packets and the
     burst startup amortise across the batch. *)
  if t.config.group_commit <= 1 then (
    try run_phase txn (Undo [ r ]) with All_mirrors_lost -> abandon txn);
  txn.ranges <- r :: txn.ranges;
  t.undo_tail <- undo_slot_of t ~off:slot ~payload_len:len;
  if t.undo_tail > t.st.undo_hwm_bytes then t.st.undo_hwm_bytes <- t.undo_tail;
  t.st.undo_bytes_logged <- t.st.undo_bytes_logged + len

(* Run [f] with [e] staged as the epoch word, restoring the previous
   staging afterwards (even on a crash or mirror loss mid-[f]). *)
let with_staged_epoch t e f =
  let image = local_dram t in
  let addr = Mem.Segment.base t.meta_local + Layout.epoch_offset in
  let saved = Mem.Image.read_u64 image addr in
  stage_epoch t e;
  Fun.protect ~finally:(fun () -> Mem.Image.write_u64 image addr saved) f

(* ------------------------------------------------------------------ *)
(* Group commit                                                         *)

(* Rewrite a transaction's record headers so their epoch tag is
   [t.epoch] — the value recovery will read from the remote metadata
   before this flush's fence lands.  A local header rewrite only;
   records still to be pushed (group mode) ship the fresh tag with the
   convoy, already-pushed ones (eager mode after a concurrent epoch
   bump) are re-pushed by the caller. *)
let retag_records t txn =
  let image = local_dram t in
  List.iter
    (fun r ->
      if r.r_tag <> t.epoch then begin
        Layout.write_undo_header image
          ~off:(Mem.Segment.base t.undo_local + r.staging_off - Layout.undo_header_size)
          { Layout.epoch = t.epoch; seg_index = r.r_seg.index; off = r.r_off; len = r.r_len };
        charge_local_copy t Layout.undo_header_size;
        r.r_tag <- t.epoch
      end)
    txn.ranges

(* The batch's records, shipped from their scattered local slots to a
   PACKED remote chain starting at offset 0 — where the recovery scan
   starts.  Convoy chunks carry independent source and destination
   offsets, so no local compaction (and no charged local copy) is
   needed: records adjacent in the local log coalesce into one chunk —
   a transaction's declarations are logged back-to-back, so chunks are
   few — and the remote chain is walked with the same packed slot
   arithmetic as the local one (all slot boundaries share the 32-byte
   stride, so a record's span is the same at both ends).  Open
   transactions' records stay local until their own flush: their data
   never travels before commit, so a crash needs no remote pre-image
   for them, and shipping them would make every flush pay for its
   bystanders, growing with offered concurrency. *)
let flush_undo_chunks batch =
  let recs =
    List.concat_map (fun txn -> txn.ranges) batch
    |> List.sort (fun a b -> compare a.staging_off b.staging_off)
  in
  let chunks = ref [] and cur = ref None and dst = ref 0 in
  List.iter
    (fun r ->
      let src_slot = r.staging_off - Layout.undo_header_size in
      let span = Layout.undo_slot_packed ~off:!dst ~payload_len:r.r_len - !dst in
      (match !cur with
      | Some (d0, s0, len) when s0 + len = src_slot -> cur := Some (d0, s0, len + span)
      | Some c ->
          chunks := c :: !chunks;
          cur := Some (!dst, src_slot, span)
      | None -> cur := Some (!dst, src_slot, span));
      dst := !dst + span)
    recs;
  (match !cur with Some c -> chunks := c :: !chunks | None -> ());
  List.rev !chunks

(* One merged convoy per mirror: the packed undo chain, then the
   batch's merged data runs, then the epoch fence as the convoy's last
   packet.  Packet order within a convoy is chunk order, so the
   protocol's ordering (pre-images durable before any data byte lands,
   fence strictly last) is preserved while the burst set-up and the
   Full64 stream warm-up are paid once per mirror instead of three
   times.  The fence chunk ships the staged epoch word, so the caller
   must run the plan under [with_staged_epoch].  Returns the dirty-list
   append that rides along, and the convoy, built once for every
   mirror: [flush] runs it and [flush_step_count] counts it. *)
let flush_convoy t batch =
  let undo_chunks = flush_undo_chunks batch in
  let w = batch_runs t batch in
  let append = list_append t w.exact in
  let widen = t.config.optimized_memcpy in
  let pieces =
    List.map
      (fun (dst, src, len) ->
        piece t ~tag:"undo" ~widen ~win:undo_win ~win_len:t.config.undo_capacity ~off:dst
          ~src_off:(Mem.Segment.base t.undo_local + src)
          ~len)
      undo_chunks
    @ List.map
        (fun (seg, off, len) ->
          piece t ~tag:"data" ~widen ~win:(seg_win seg) ~win_len:seg.size ~off
            ~src_off:(Mem.Segment.base seg.local + off)
            ~len)
        w.data
    (* The batch's dirty-list append rides in the same convoy, after
       the data and before the fence — the convoy stays one burst and
       the fence stays strictly last. *)
    @ append_pieces t append
    @ [
        piece t ~tag:"fence" ~widen:false ~win:meta_win ~win_len:(meta_size t) ~off:Layout.epoch_offset
          ~src_off:(Mem.Segment.base t.meta_local + Layout.epoch_offset)
          ~len:8;
      ]
  in
  (append, plan_of t pieces)

(* Overflow relief: flushed transactions leave dead records interleaved
   with the open transactions' live ones, and the tail only resets when
   the engine quiesces.  Under sustained concurrency the log eventually
   fills with dead slots; sliding the survivors to the front (a local
   move — group mode has not pushed them yet) reclaims it.  Called from
   the [set_range] overflow path, not per flush: at ~one compaction per
   log's worth of commits the copies amortise to noise, where per-flush
   compaction would pay them on every batch. *)
let compact_log t =
  let image = local_dram t in
  let base = Mem.Segment.base t.undo_local in
  let live =
    List.concat_map (fun txn -> txn.ranges) t.open_txns
    |> List.sort (fun a b -> compare a.staging_off b.staging_off)
  in
  let tail = ref 0 in
  List.iter
    (fun r ->
      let src_slot = r.staging_off - Layout.undo_header_size in
      let record_len = Layout.undo_header_size + r.r_len in
      if src_slot <> !tail then begin
        Mem.Image.blit ~src:image ~src_off:(base + src_slot) ~dst:image ~dst_off:(base + !tail)
          ~len:record_len;
        charge_local_copy t record_len;
        r.staging_off <- !tail + Layout.undo_header_size
      end;
      tail := undo_slot_of t ~off:!tail ~payload_len:r.r_len)
    live;
  t.undo_tail <- !tail;
  Trace.Gauge.set t.g_undo_tail t.undo_tail

(* Drain the group-commit queue: retag the batch's records to the
   current epoch, then ship one convoy per mirror — packed undo chain,
   merged data runs, epoch fence last — one shared commit point for
   the whole batch.  Batch atomicity implies per-transaction
   atomicity: a crash before the fence replays every record of the
   current epoch, after it the whole batch is durable.  If the last
   mirror dies mid-flush, every staged transaction rolls back locally
   (open ones stay open — they roll back through their own abort
   paths). *)
let flush t =
  if t.staged <> [] then begin
    if t.flushing then failwith "Perseas.flush: reentrant flush";
    t.flushing <- true;
    Fun.protect ~finally:(fun () -> t.flushing <- false) @@ fun () ->
    let batch = t.staged in
    let n = List.length batch in
    List.iter (fun txn -> retag_records t txn) batch;
    let append, plan = flush_convoy t batch in
    let plans = [ plan ] in
    stage_append t (Int64.add t.epoch 1L) append;
    t.convoy_seq <- t.convoy_seq + 1;
    let convoy = t.convoy_seq in
    let batch_ids () = String.concat "+" (List.map (fun x -> string_of_int x.t_id) batch) in
    (try
       with_staged_epoch t (Int64.add t.epoch 1L) (fun () ->
           each_live_mirror t (fun i m ->
               if not (Trace.Sink.enabled t.sink) then send t m plans
               else
                 traced t ~name:"flush_convoy"
                   ~args:(fun () ->
                     [
                       ("mirror", string_of_int i);
                       ("txns", string_of_int n);
                       ("batch", batch_ids ());
                     ])
                   (fun () ->
                     with_ctx t
                       (fun () ->
                         [
                           ("op", "flush_convoy");
                           ("batch", batch_ids ());
                           ("convoy", "c" ^ string_of_int convoy);
                           ("mirror", string_of_int i);
                           ("node", string_of_int (mirror_node_id m));
                           ("epoch", Int64.to_string (Int64.add t.epoch 1L));
                         ])
                       (fun () -> send t m plans))))
     with All_mirrors_lost ->
       (* No fence landed anywhere: the batch is not durable.  Roll
          every staged transaction back locally; byte overlap between
          batch members is impossible, so per-transaction rollback
          order does not matter. *)
       List.iter
         (fun txn ->
           traced t ~name:"abort" ~args:(fun () -> [ ("reason", "all_mirrors_lost") ]) (fun () ->
               rollback_local txn))
         (List.rev batch);
       t.st.aborts <- t.st.aborts + n;
       t.staged <- [];
       List.iter close batch;
       Log.warn (fun k -> k "all mirrors lost mid-flush: %d staged transaction(s) rolled back" n);
       raise All_mirrors_lost);
    t.epoch <- Int64.add t.epoch 1L;
    List.iter (fun txn -> note_dirty t ~tag:t.epoch txn.staged_exact) batch;
    t.st.committed <- t.st.committed + n;
    t.st.group_flushes <- t.st.group_flushes + 1;
    t.st.group_commit_txns <- t.st.group_commit_txns + n;
    Trace.Gauge.set t.g_group_size n;
    t.staged <- [];
    List.iter close batch
  end

let set_range txn seg ~off ~len =
  check_open txn "set_range";
  check_seg_range seg ~off ~len "set_range";
  if len = 0 then invalid_arg "Perseas.set_range: empty range";
  let t = txn.owner in
  (* The declaration's coordinates ride on the span so trace observers
     (the cost model, notably) can replay the write-set arithmetic
     without participating in the run. *)
  let start = Clock.now (clock t) in
  Clock.advance (clock t) t_set_range;
  if Trace.Sink.enabled t.sink then
    span_from t ~name:"set_range"
      ~args:
        [
          ("txn", string_of_int txn.t_id);
          ("seg", seg.seg_name);
          ("idx", string_of_int seg.index);
          ("off", string_of_int off);
          ("len", string_of_int len);
          ("size", string_of_int seg.size);
        ]
      start;
  (* Conflict detection at 64-byte-line granularity — the unit the NIC
     widening and commit glue may ship margin bytes at, so line-level
     disjointness is what makes cross-transaction batching safe.  The
     line index names, for each declared line, the in-flight
     transaction whose write-set touches it.  That owner is unique:
     these very rules keep in-flight write-sets line-disjoint, each
     declaration resolving its clashes before it claims its lines.
     Against the owners of the declared lines:
     - a STAGED owner makes the declarer win by waiting: the queue is
       flushed early and the declaration proceeds against committed
       state;
     - against OPEN owners the younger side aborts — an older
       transaction has done more work and is closer to committing, so
       the cheaper loser retries (see DESIGN.md).
     A transaction alone in flight has no peer to clash with: the index
     is kept, and read, only once a second transaction has begun. *)
  let peers = ref [] in
  if t.indexed then
    for l = line seg off to line seg (off + len - 1) do
      match Lines.find t.owners l with
      | p -> if p != txn && not (List.memq p !peers) then peers := p :: !peers
      | exception Not_found -> ()
    done;
  (match !peers with
  | [] -> ()
  | peers -> (
      if List.exists (fun p -> p.state = Staged) peers then flush t;
      (* Newest first, like [t.open_txns]. *)
      let clashing =
        List.filter (fun p -> p.state = Open) peers
        |> List.sort (fun a b -> Int.compare b.t_id a.t_id)
      in
      match List.find_opt (fun p -> p.t_id < txn.t_id) clashing with
      | Some older ->
          (* The declarer is the younger party: roll it back and surface
             the typed conflict to its client for a retry. *)
          t.st.conflicts <- t.st.conflicts + 1;
          t.st.aborts <- t.st.aborts + 1;
          traced t ~name:"abort"
            ~args:(fun () -> [ ("reason", "conflict"); ("txn", string_of_int txn.t_id) ])
            (fun () -> rollback_local txn);
          close txn;
          raise (Conflict { younger = txn.t_id; older = older.t_id })
      | None ->
          (* Every clashing holder is younger: doom each one — roll it
             back now, before this declaration's before-image is cut, and
             let the loser learn of it at its next library call. *)
          List.iter
            (fun victim ->
              t.st.conflicts <- t.st.conflicts + 1;
              t.st.aborts <- t.st.aborts + 1;
              traced t ~name:"abort"
                ~args:(fun () -> [ ("reason", "conflict"); ("txn", string_of_int victim.t_id) ])
                (fun () -> rollback_local victim);
              release victim;
              victim.ranges <- [];
              victim.wset <- Imap.empty;
              victim.state <- Doomed;
              victim.doomed_by <- txn.t_id;
              t.open_txns <- List.filter (fun x -> x != victim) t.open_txns)
            clashing));
  let prior = txn_iset txn seg in
  (* First-write-only logging: a sub-range already declared this
     transaction keeps its original before-image — the one recovery and
     rollback must restore — so only the still-uncovered fragments need
     undo records at all. *)
  let fragments =
    if t.config.redundancy_elision then Iset.uncovered prior ~off ~len else [ (off, len) ]
  in
  (* Reserve log space for the whole call up front so an overflow
     leaves no half-logged fragment behind. *)
  let rec fits tail = function
    | [] -> true
    | (_, flen) :: rest ->
        tail + Layout.undo_header_size + flen <= t.config.undo_capacity
        && fits (undo_slot_of t ~off:tail ~payload_len:flen) rest
  in
  (* A full log first tries draining the group-commit queue (retiring
     the batch's records), then compacting the survivors to the front.
     Only if the log is still too small does the overflow surface — and
     then only to the caller; staged transactions are already retired
     and open peers untouched. *)
  if not (fits t.undo_tail fragments) then begin
    if t.staged <> [] then flush t;
    if not (fits t.undo_tail fragments) then compact_log t;
    if not (fits t.undo_tail fragments) then raise Undo_overflow
  end;
  List.iter (fun (off, len) -> log_undo_record txn seg ~off ~len) fragments;
  Trace.Gauge.set t.g_undo_tail t.undo_tail;
  txn.wset <- Imap.add seg.index (Iset.add prior ~off ~len) txn.wset;
  if t.indexed then claim txn seg ~off ~len;
  txn.declared <- txn.declared + 1;
  txn.declared_bytes <- txn.declared_bytes + len;
  t.st.set_ranges <- t.st.set_ranges + 1;
  t.st.elided_undo_bytes <-
    t.st.elided_undo_bytes + (len - List.fold_left (fun acc (_, flen) -> acc + flen) 0 fragments)

let commit txn =
  check_open txn "commit";
  let t = txn.owner in
  let start = Clock.now (clock t) in
  Clock.advance (clock t) t_commit;
  if Trace.Sink.enabled t.sink then
    span_from t ~name:"commit" ~args:[ ("txn", string_of_int txn.t_id) ] start;
  let w = wset_runs t txn.wset in
  if t.config.redundancy_elision then begin
    t.st.coalesced_ranges <- t.st.coalesced_ranges + max 0 (txn.declared - List.length w.data);
    t.st.commit_bytes_saved <- t.st.commit_bytes_saved + max 0 (txn.declared_bytes - w.bytes)
  end;
  if t.config.group_commit <= 1 then begin
    (* Figure 3, step 3: propagate updated ranges to every mirror, then
       bump the epoch everywhere — the per-mirror single-packet commit
       point. *)
    let e = Int64.add t.epoch 1L in
    (try
       List.iter
         (fun phase ->
           match phase with
           | Undo _ ->
               retag_records t txn;
               run_phase txn phase
           | Propagate _ -> run_phase txn phase
           | Segmeta a ->
               stage_append t e a;
               run_phase txn phase
           | Fence -> with_staged_epoch t e (fun () -> run_phase txn phase))
         (commit_phases txn w)
     with All_mirrors_lost -> abandon txn);
    t.epoch <- Int64.add t.epoch 1L;
    note_dirty t ~tag:t.epoch w.exact;
    t.st.committed <- t.st.committed + 1;
    close txn
  end
  else begin
    (* Group commit: stage the transaction and let the shared flush
       carry it.  Durability — and the [committed] count — arrive with
       the flush's fence, not here. *)
    txn.state <- Staged;
    txn.staged_exact <- w.exact;
    t.open_txns <- List.filter (fun x -> x != txn) t.open_txns;
    t.staged <- t.staged @ [ txn ];
    if List.length t.staged >= t.config.group_commit then flush t
  end

(* The mirrors a remote phase would reach now: the live ones whose
   server still answers.  A mirror whose node died unnoticed is dropped
   at the phase's first copy and sends nothing. *)
let reachable_mirrors t =
  Array.fold_left
    (fun n m -> if m.m_alive && Client.reachable m.m_client then n + 1 else n)
    0 t.mirrors

(* How many flush packets the queue [batch] would cost right now: the
   merged convoy (packed undo chain, merged data runs, fence) once per
   reachable mirror.  An empty batch flushes nothing and costs nothing.
   The convoy is a pure function of the batch's records — a dry run
   moves nothing — and is the one the real flush will ship. *)
let flush_step_count t batch =
  match batch with
  | [] -> 0
  | _ :: _ ->
      let _, plan = flush_convoy t batch in
      reachable_mirrors t * Sci.Nic.plan_packets plan

let commit_packets txn =
  check_open txn "commit_packets";
  let t = txn.owner in
  if t.config.group_commit <= 1 then
    let packets phase =
      List.fold_left (fun n plan -> n + Sci.Nic.plan_packets plan) 0 (phase_plans t phase)
    in
    reachable_mirrors t
    * List.fold_left (fun n phase -> n + packets phase) 0 (commit_phases txn (wset_runs t txn.wset))
  else
    (* The transaction's MARGINAL packets: what the flush costs with it
       staged, minus what the already-staged queue costs alone — the
       shared undo convoy and fence are charged to the first committer
       of a batch and amortise to zero for the rest.  Summed over a
       batch (with no interleaved declarations) the marginals telescope
       to exactly the flush's packet count. *)
    flush_step_count t (t.staged @ [ txn ]) - flush_step_count t t.staged

let abort txn =
  match txn.state with
  | Doomed ->
      (* Already rolled back at doom time; aborting is what the loser
         was going to do anyway, so closing silently is enough. *)
      txn.state <- Closed
  | Staged -> failwith "Perseas.abort: transaction already committed (staged)"
  | Closed -> failwith "Perseas.abort: transaction is closed"
  | Open ->
      let t = txn.owner in
      traced t ~name:"abort" ~args:(fun () -> [ ("txn", string_of_int txn.t_id) ]) (fun () ->
          rollback_local txn);
      t.st.aborts <- t.st.aborts + 1;
      close txn

(* O(log n) on the coalesced index — and deliberately a touch more
   permissive than scanning the declared ranges: a write spanning two
   adjacent declarations is covered, which is exactly the promise
   set_range made. *)
let covered txn seg ~off ~len = Iset.covers (txn_iset txn seg) ~off ~len

(* [List.exists (covered ...)] over [txns], without a closure per write. *)
let rec covered_by_open seg ~off ~len = function
  | [] -> false
  | txn :: rest -> covered txn seg ~off ~len || covered_by_open seg ~off ~len rest

let write t seg ~off data =
  let len = Bytes.length data in
  check_seg_range seg ~off ~len "write";
  if t.ready then begin
    (* In-flight write-sets are pairwise line-disjoint, so only the
       owner of the range's first line can cover it; unindexed, at most
       one transaction is open. *)
    let ok =
      if t.indexed && len > 0 then
        match Lines.find t.owners (line seg off) with
        | txn -> txn.state = Open && covered txn seg ~off ~len
        | exception Not_found -> false
      else covered_by_open seg ~off ~len t.open_txns
    in
    if not ok then
      if t.open_txns = [] then failwith "Perseas.write: no open transaction"
      else
        failwith
          (Printf.sprintf "Perseas.write: [%d,+%d) of %S not covered by any open set_range" off len
             seg.seg_name)
  end;
  Mem.Image.write_bytes (local_dram t) ~off:(Mem.Segment.base seg.local + off) data;
  let start = Clock.now (clock t) in
  charge_local_copy t len;
  if Trace.Sink.enabled t.sink then span_from t ~name:"in_place_write" start

let read t seg ~off ~len =
  check_seg_range seg ~off ~len "read";
  Mem.Image.read_bytes (local_dram t) ~off:(Mem.Segment.base seg.local + off) ~len

let write_u32 t seg ~off v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  write t seg ~off b

let read_u32 t seg ~off =
  check_seg_range seg ~off ~len:4 "read_u32";
  Mem.Image.read_u32 (local_dram t) (Mem.Segment.base seg.local + off)

let write_u64 t seg ~off v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write t seg ~off b

let read_u64 t seg ~off =
  check_seg_range seg ~off ~len:8 "read_u64";
  Mem.Image.read_u64 (local_dram t) (Mem.Segment.base seg.local + off)

let checksum t seg =
  Mem.Image.checksum (local_dram t) ~off:(Mem.Segment.base seg.local) ~len:seg.size

let mirror_checksums t seg =
  Array.to_list t.mirrors
  |> List.mapi (fun i m -> (i, m))
  |> List.filter_map (fun (i, m) ->
         if not m.m_alive then None
         else
           let image = Node.dram (Netram.Server.node (Client.server m.m_client)) in
           Some (i, Mem.Image.checksum image ~off:(Remote_segment.base m.m_segs.(seg.index)) ~len:seg.size))

let mirror_checksum t seg =
  match mirror_checksums t seg with
  | (_, c) :: _ -> c
  | [] -> raise All_mirrors_lost

(* Operational scrub: compare every segment against every live mirror
   (no virtual time charged — a test/ops oracle, not a protocol step). *)
let verify_mirrors t =
  List.concat_map
    (fun seg ->
      let local = checksum t seg in
      List.filter_map
        (fun (i, c) -> if c <> local then Some (seg.seg_name, i) else None)
        (mirror_checksums t seg))
    t.segs

let set_packet_hook t hook = t.hook <- hook
let txn_id txn = txn.t_id
let txn_client txn = txn.t_client
let validate txn = match txn.state with Doomed -> check_open txn "validate" | _ -> ()
let open_txn_count t = List.length t.open_txns
let staged_count t = List.length t.staged

let pp_stats ppf s =
  Fmt.pf ppf "@[<v>";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Fmt.cut ppf ();
      Fmt.pf ppf "%-18s %d" k v)
    (stats_fields s);
  Fmt.pf ppf "@]"

let stats_to_json s =
  "{ "
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) (stats_fields s))
  ^ " }"

(* ------------------------------------------------------------------ *)
(* Mirror management                                                    *)

(* Export-or-reconnect every PERSEAS object on [server] and bring it in
   sync with the local database.  Handles both a brand-new server and a
   stale ex-mirror whose directory still holds old segments. *)
let connect_or_export client ~name ~size =
  match Client.connect client ~name with
  | Some h when Remote_segment.len h = size -> h
  | Some h ->
      Client.free client h;
      Client.malloc client ~name ~size
  | None -> Client.malloc client ~name ~size

(* Cheap failure detection: one control round trip per live mirror
   (each charged {!Client.rpc_time}).  Dead mirrors are dropped exactly
   as if a data operation had hit them — but outside any transaction,
   so a supervisor probing at transaction boundaries retires corpses
   before a commit can half-write to them.  Returns the node ids
   dropped; never raises {!All_mirrors_lost} (detecting an empty pool
   is the caller's job — there may be nothing in flight to protect). *)
let probe_mirrors t =
  Array.to_list t.mirrors
  |> List.filter_map (fun m ->
         if not m.m_alive then None
         else if Client.ping m.m_client then None
         else begin
           drop_mirror t m "failed liveness probe";
           Some (mirror_node_id m)
         end)

let full_bytes t = List.fold_left (fun acc s -> acc + s.size) 0 t.segs

(* Write 8 zero bytes over a joiner's remote magic word before any
   resync copying: if the copy is cut short (crash, flaky spare), the
   half-written replica has no valid metadata header, so recovery's
   candidate probe skips it instead of trusting stale-but-valid
   contents.  The final [push_meta] restores magic and the new epoch,
   completing the copy atomically from recovery's point of view. *)
let fence_joiner t m =
  let image = local_dram t in
  let base = Mem.Segment.base t.meta_local in
  let saved = Mem.Image.read_u64 image base in
  Mem.Image.write_u64 image base 0L;
  Fun.protect
    ~finally:(fun () -> Mem.Image.write_u64 image base saved)
    (fun () ->
      send t m [ plan_to t ~widen:true ~win:meta_win ~win_len:(meta_size t) ~off:0 ~src_off:base ~len:8 ])

exception Not_incremental of string

(* A joiner's handles on [client]'s server.  With [exact = Some since]
   the joiner is an ex-mirror retired at epoch [since], and its
   exported PERSEAS objects must have survived the outage intact: right
   names and sizes, metadata header valid, and the replica no further
   along than [since] (a newer epoch means somebody else wrote to it —
   trust nothing); otherwise [Not_incremental] says why.  The header
   reads are real remote reads and charge virtual time.  With [None]
   every object is exported, or reconnected when a stale one of the
   right size is left over. *)
let joiner_handles t client ~exact =
  let ns = t.config.namespace in
  let get name size what =
    match exact with
    | None -> connect_or_export client ~name ~size
    | Some _ -> (
        match Client.connect client ~name with
        | Some h when Remote_segment.len h = size -> h
        | Some _ -> raise (Not_incremental (what ^ " changed size"))
        | None -> raise (Not_incremental (what ^ " no longer exported")))
  in
  let meta = get (Layout.meta_name ~ns) (meta_size t) "metadata segment" in
  Option.iter
    (fun since ->
      if Client.read_u64 client meta ~seg_off:0 <> Layout.meta_magic then
        raise (Not_incremental "metadata header invalid");
      if Client.read_u64 client meta ~seg_off:Layout.epoch_offset > since then
        raise (Not_incremental "replica ahead of its retirement epoch"))
    exact;
  let undo = get (Layout.undo_name ~ns) t.config.undo_capacity "undo segment" in
  let list =
    if tracking t then Some (get (Layout.dirty_list_name ~ns) dirty_list_size "dirty-chunk list")
    else None
  in
  let segs =
    List.map
      (fun seg ->
        get (Layout.db_export_name ~ns seg.seg_name) seg.size (Printf.sprintf "segment %S" seg.seg_name))
      (segments t)
  in
  mirror client ~meta ~undo ~segs:(Array.of_list segs) ~list

let add_dirty acc d =
  let prev = Option.value (Imap.find_opt d.d_seg acc) ~default:Iset.empty in
  Imap.add d.d_seg (Iset.add prev ~off:d.d_off ~len:d.d_len) acc

(* What a copy of the database that was current at epoch [since] lacks,
   as [(seg, off, len)] runs.  While the dirty log reaches back that far:
   every dirty entry tagged later than [since], coalesced per segment
   (overlaps and adjacent runs merged) so each byte is copied at most
   once — and when [since] predates the last checkpoint's truncation,
   the summary of the truncated entries seeds the union, a superset of
   what the full log would have returned (conservative over-copy, never
   a missed byte).  Otherwise, or with no [since], every segment whole.
   A joiner's resync and a checkpoint's finalize re-ship both follow
   this rule. *)
let owed t ~since =
  match since with
  | Some s when s >= t.dirty_floor ->
      let seed = if s < t.ckpt_summary_upto then t.ckpt_summary else Imap.empty in
      exact_runs t
        (Queue.fold (fun acc d -> if d.d_epoch > s then add_dirty acc d else acc) seed t.dirty)
  | _ -> List.map (fun seg -> (seg, 0, seg.size)) (segments t)

(* Scrub a copy of the local image back to committed state: the image
   holds open transactions' uncommitted bytes, so [put seg ~off ~src_off
   ~len] overwrites each range they declared with its before-image from
   the local undo staging — a range not written yet is rewritten with
   identical bytes (a no-op). *)
let scrub_open t put =
  List.iter
    (fun txn ->
      List.iter
        (fun r ->
          put r.r_seg ~off:r.r_off ~src_off:(Mem.Segment.base t.undo_local + r.staging_off) ~len:r.r_len)
        txn.ranges)
    t.open_txns

(* A joiner's list may be fresh or left over from an earlier life: ship
   every entry appended since the base.  Leftovers past them can only
   name chunks for recovery to fetch from the mirror, which is safe. *)
let ship_list t m =
  if listing t && t.dirty_pos > 0 then
    send t m
      [
        plan_to t ~widen:t.config.optimized_memcpy ~win:(list_win t) ~win_len:dirty_list_size ~off:0
          ~src_off:(dirty_staging t) ~len:(t.dirty_pos * Layout.dirty_entry_size);
      ]

(* Bring [server] in as a mirror.  An ex-mirror retired at an epoch the
   dirty log still reaches, whose objects survived intact, is owed only
   the ranges committed since it left (incremental); anything else gets
   every segment whole.  Either way: fence the joiner, copy what it is
   owed, ship the dirty-chunk list, scrub open transactions' bytes and
   bump the epoch. *)
let do_attach ~op ~allow_incremental t ~server =
  (* Membership changes no longer wait for "no open transaction" —
     under concurrency that moment may never come.  They quiesce the
     group-commit queue instead: drain the staged commits, refuse only
     while a flush is actually propagating. *)
  if t.flushing then failwith (Printf.sprintf "Perseas.%s: commit propagation in flight" op);
  flush t;
  let node_id = Node.id (Netram.Server.node server) in
  let existing = Array.to_list t.mirrors |> List.exists (fun m -> m.m_alive && mirror_node_id m = node_id) in
  if existing then invalid_arg (Printf.sprintf "Perseas.%s: node already mirrors this database" op);
  let client = Client.create ~cluster:t.cluster ~local:t.local_id ~server in
  let retired_at =
    if allow_incremental && t.ready then
      match Hashtbl.find_opt t.retired node_id with
      | Some s when s >= t.dirty_floor -> Some s
      | Some _ | None -> None
    else None
  in
  let n_before = Array.length t.mirrors in
  try
    traced t ~cat:"mirror" ~name:"resync" ~args:(fun () -> [ ("node", string_of_int node_id) ])
    @@ fun () ->
    with_ctx t (fun () -> [ ("op", "resync"); ("node", string_of_int node_id) ]) @@ fun () ->
    let m, since =
      try (joiner_handles t client ~exact:retired_at, retired_at)
      with Not_incremental reason ->
        Log.info (fun k -> k "%s: node %d falls back to a full resync (%s)" op node_id reason);
        (joiner_handles t client ~exact:None, None)
    in
    t.mirrors <- Array.append t.mirrors [| m |];
    let copy = if t.ready then owed t ~since else [] in
    if t.ready then fence_joiner t m;
    send t m (plans_for t copy);
    ship_list t m;
    scrub_open t (fun seg ~off ~src_off ~len ->
        send t m [ plan_to t ~widen:false ~win:(seg_win seg) ~win_len:seg.size ~off ~src_off ~len ]);
    Hashtbl.remove t.retired node_id;
    let copied = List.fold_left (fun acc (_, _, len) -> acc + len) 0 copy in
    if t.ready then begin
      (* Bump the epoch so stale undo records (here and on every other
         mirror) can never be replayed against the fresh copy. *)
      t.epoch <- Int64.add t.epoch 1L;
      push_meta t;
      t.st.mirrors_recruited <- t.st.mirrors_recruited + 1;
      t.st.resync_bytes <- t.st.resync_bytes + copied
    end;
    note_replication t;
    {
      mode = (if since = None then Full else Incremental);
      bytes_copied = copied;
      full_bytes = full_bytes t;
    }
  with Client.Unreachable msg ->
    (* The joiner died mid-resync.  Undo the membership change so the
       live set is exactly what it was; the fence already guarantees a
       half-copied replica can never be mistaken for a sound one. *)
    t.mirrors <- Array.sub t.mirrors 0 n_before;
    Log.warn (fun k -> k "%s: node %d unreachable mid-resync (%s)" op node_id msg);
    raise (Client.Unreachable msg)

let attach_mirror t ~server =
  ignore (do_attach ~op:"attach_mirror" ~allow_incremental:false t ~server)

let recruit_mirror t ~server = do_attach ~op:"recruit_mirror" ~allow_incremental:true t ~server

let detach_mirror t ~node_id =
  if t.flushing then failwith "Perseas.detach_mirror: commit propagation in flight";
  flush t;
  match Array.to_list t.mirrors |> List.find_opt (fun m -> m.m_alive && mirror_node_id m = node_id) with
  | None ->
      invalid_arg (Printf.sprintf "Perseas.detach_mirror: node %d is not a live mirror" node_id)
  | Some m ->
      if mirror_count t = 1 then
        failwith
          "Perseas.detach_mirror: refusing to detach the last live mirror (the database would \
           become unrecoverable); attach a replacement first";
      retire_mirror t m

let remirror t ~server =
  if t.flushing then failwith "Perseas.remirror: commit propagation in flight";
  flush t;
  Array.iter (fun m -> if m.m_alive then retire_mirror t m) t.mirrors;
  t.mirrors <- [||];
  attach_mirror t ~server

(* ------------------------------------------------------------------ *)
(* Fuzzy checkpoints                                                    *)

(* A checkpoint slot is laid out like an archive: a metadata-format
   header (magic, cut epoch, segment table), then the segment images at
   64-byte-aligned offsets.  [ckpt_offsets] is the one place that
   arithmetic lives — the checkpointer and recovery both call it, so
   writer and reader can never disagree on where a segment sits. *)
let ckpt_offsets ~meta_size sizes =
  let off = ref (Layout.align64 meta_size) in
  let offs =
    List.map
      (fun size ->
        let o = !off in
        off := Layout.align64 (o + size);
        o)
      sizes
  in
  (offs, !off)

module Checkpoint = struct
  exception Target_lost of string

  let seg_offsets t =
    let segs = segments t in
    let offs, total = ckpt_offsets ~meta_size:(meta_size t) (List.map (fun s -> s.size) segs) in
    (List.combine segs offs, total)

  let in_flight t = t.ckpt_inflight <> None
  let generation t = t.ckpt_gen
  let target_set t = t.ckpt_target <> None

  (* Stop the list: the mirrors must stop claiming entries nobody
     appends. *)
  let drop_list t =
    t.dirty_base <- 0L;
    t.dirty_pos <- 0;
    push_meta t

  (* Restart the mirrors' lists at [cut], once its slot is published:
     the base word moves up to the cut (one 8-byte store per mirror) and
     appends start over at the head.  Until a mirror's store lands it
     keeps its older base and every entry since — a superset of what
     the new slot needs. *)
  let restart_list t ~cut =
    t.dirty_base <- cut;
    t.dirty_pos <- 0;
    Bytes.fill t.dirty_listed 0 (Bytes.length t.dirty_listed) '\000';
    let word = Mem.Segment.base t.meta_local + Layout.ckpt_base_offset in
    Mem.Image.write_u64 (local_dram t) word cut;
    let plan =
      plan_to t ~widen:false ~win:meta_win ~win_len:(meta_size t) ~off:Layout.ckpt_base_offset
        ~src_off:word ~len:8
    in
    on_live_mirrors t (fun _ m ->
        with_ctx t
          (fun () -> [ ("op", "list_base"); ("node", string_of_int (mirror_node_id m)) ])
          (fun () -> send t m [ plan ]))

  (* Loss of the checkpoint target is a degraded-mode event like a
     mirror loss, not a bug: drop the target, stop the dirty-chunk list
     and surface the typed error.  Published generations stay
     intact on the target if its node survives, but this engine forgets
     them — a fresh [set_ram_target] starts from generation 0. *)
  let target_lost t msg =
    t.ckpt_inflight <- None;
    t.ckpt_target <- None;
    t.ckpt_gen <- 0L;
    (try drop_list t with All_mirrors_lost -> ());
    raise (Target_lost msg)

  let with_target t f = try f () with Client.Unreachable msg -> target_lost t msg

  let require_target t op =
    match t.ckpt_target with
    | Some tg -> tg
    | None -> failwith (Printf.sprintf "Perseas.Checkpoint.%s: no checkpoint target" op)

  let require_inflight t op =
    match t.ckpt_inflight with
    | Some p -> p
    | None -> failwith (Printf.sprintf "Perseas.Checkpoint.%s: no checkpoint in flight" op)

  (* Run [f] with the causal tags of checkpoint traffic [op] to the
     target's node. *)
  let to_target t tg op f =
    with_ctx t
      (fun () ->
        [ ("op", op); ("node", string_of_int (Node.id (Netram.Server.node (Client.server tg.c_client)))) ])
      f

  (* Ship [len] bytes of local DRAM at [src_off] into slot [slot] at
     [off], packet by packet through the fault-injection hook. *)
  let slot_write t tg ~slot ~off ~src_off ~len =
    to_target t tg "ckpt_ship" (fun () ->
        run_plan t
          (Client.plan_write tg.c_client ~widen:t.config.optimized_memcpy tg.c_slots.(slot)
             ~seg_off:off ~src_off ~len))

  (* Zero the under-construction slot's magic word before any snapshot
     byte lands (the fence_joiner idiom): a crash mid-checkpoint leaves
     a slot recovery's probe refuses, never a torn snapshot it trusts. *)
  let zero_slot_magic t tg slot =
    let base = Mem.Segment.base tg.c_scratch in
    Mem.Image.write_u64 (local_dram t) base 0L;
    to_target t tg "ckpt_ship" (fun () ->
        run_plan t
          (Client.plan_write tg.c_client ~widen:false tg.c_slots.(slot) ~seg_off:0 ~src_off:base
             ~len:8))

  (* Publish: header body first, the magic word second, the directory's
     generation word (one atomic 8-byte store) strictly last.  A crash
     at any packet of this sequence leaves either the previous
     generation published or the new one — never a torn mix. *)
  let publish t tg p ~cut =
    let msize = meta_size t in
    let image = local_dram t in
    let base = Mem.Segment.base tg.c_scratch in
    Mem.Image.write_bytes image ~off:base (meta_image t cut);
    charge_local_copy t msize;
    to_target t tg "ckpt_publish" @@ fun () ->
    run_plan t
      (Client.plan_write tg.c_client ~widen:t.config.optimized_memcpy tg.c_slots.(p.p_slot)
         ~seg_off:8 ~src_off:(base + 8) ~len:(msize - 8));
    run_plan t
      (Client.plan_write tg.c_client ~widen:false tg.c_slots.(p.p_slot) ~seg_off:0 ~src_off:base
         ~len:8);
    Mem.Image.write_u64 image base p.p_gen;
    run_plan t (Client.plan_write tg.c_client ~widen:false tg.c_dir ~seg_off:0 ~src_off:base ~len:8)

  let check_settable t op =
    if not t.ready then
      failwith (Printf.sprintf "Perseas.Checkpoint.%s: call init_remote_db first" op);
    if t.segs = [] then
      invalid_arg (Printf.sprintf "Perseas.Checkpoint.%s: the database has no segments" op);
    if t.ckpt_inflight <> None then
      failwith (Printf.sprintf "Perseas.Checkpoint.%s: checkpoint in flight" op)

  (* Export the dirty-chunk list on every mirror.  The list stays
     unused — its base word zero, as every mirror's already is — until
     the first checkpoint is published: no slot of this install exists
     before, and a slot of an earlier install, whose cut precedes that
     first base, is never adopted. *)
  let install_target t tg =
    if t.dirty_local = None then
      t.dirty_local <- Some (alloc_local t dirty_list_size "dirty-chunk list");
    let nchunks = snd (Layout.chunk_bases (List.map (fun s -> s.size) (segments t))) in
    t.dirty_listed <- Bytes.make ((nchunks + 7) / 8) '\000';
    each_live_mirror t (fun _ m ->
        m.m_dirty <-
          Some
            (connect_or_export m.m_client
               ~name:(Layout.dirty_list_name ~ns:t.config.namespace)
               ~size:dirty_list_size);
        rebind m);
    t.ckpt_target <- Some tg;
    t.ckpt_gen <- 0L

  let set_ram_target t ~server =
    check_settable t "set_ram_target";
    let node_id = Node.id (Netram.Server.node server) in
    (* A target sharing the primary's node would checkpoint RAM into the
       very failure domain it protects — and, after a recovery that
       adopted a slot in place, would overwrite the live database. *)
    if node_id = t.local_id then
      invalid_arg "Perseas.Checkpoint.set_ram_target: target must live on a remote node";
    let client = Client.create ~cluster:t.cluster ~local:t.local_id ~server in
    let tg =
      try
        let _, slot_size = seg_offsets t in
        let dir =
          connect_or_export client
            ~name:(Layout.ckpt_dir_name ~ns:t.config.namespace)
            ~size:Layout.ckpt_dir_size
        in
        let slots =
          Array.init 2 (fun slot ->
              connect_or_export client
                ~name:(Layout.ckpt_slot_name ~ns:t.config.namespace ~slot)
                ~size:slot_size)
        in
        (* This engine starts from generation 0: invalidate any stale
           directory a previous incarnation left behind. *)
        Client.write_u64 client dir ~seg_off:0 0L;
        let scratch = alloc_local t (meta_size t) "checkpoint staging" in
        { c_client = client; c_dir = dir; c_slots = slots; c_scratch = scratch }
      with Client.Unreachable msg ->
        t.ckpt_target <- None;
        raise (Target_lost msg)
    in
    install_target t tg

  let clear_target t =
    if t.ckpt_inflight <> None then failwith "Perseas.Checkpoint.clear_target: checkpoint in flight";
    if t.ckpt_target <> None then begin
      t.ckpt_target <- None;
      t.ckpt_gen <- 0L;
      drop_list t
    end

  let start t =
    let tg = require_target t "start" in
    if t.ckpt_inflight <> None then failwith "Perseas.Checkpoint.start: checkpoint already in flight";
    if t.flushing then failwith "Perseas.Checkpoint.start: commit propagation in flight";
    (* The cut boundary never splits a commit convoy: quiesce the
       group-commit queue so every staged transaction is either fully
       before this checkpoint or arrives as ordinary post-start dirt. *)
    flush t;
    if Trace.Sink.enabled t.sink then
      Trace.Sink.instant t.sink ~cat:"ckpt" ~name:"cut" ~at:(Clock.now (clock t))
        ~args:[ ("phase", "start") ];
    with_target t @@ fun () ->
    let gen = Int64.add t.ckpt_gen 1L in
    let slot = Int64.to_int (Int64.rem gen 2L) in
    zero_slot_magic t tg slot;
    t.ckpt_inflight <-
      Some { p_gen = gen; p_slot = slot; p_started_epoch = t.epoch; p_shipped = 0; p_total = full_bytes t }

  (* Ship up to [budget] bytes of the segment concatenation, resuming
     where the last step stopped.  Commits keep landing between steps —
     that is the fuzzy part; whatever they dirty is re-shipped at
     finalize time. *)
  let ship t tg p ~budget =
    let offs, _ = seg_offsets t in
    let budget = ref budget in
    let cum = ref 0 in
    List.iter
      (fun (seg, slot_off) ->
        let seg_start = !cum in
        cum := !cum + seg.size;
        if !budget > 0 && p.p_shipped < !cum then begin
          let pos = p.p_shipped - seg_start in
          let len = min (seg.size - pos) !budget in
          slot_write t tg ~slot:p.p_slot ~off:(slot_off + pos)
            ~src_off:(Mem.Segment.base seg.local + pos) ~len;
          p.p_shipped <- p.p_shipped + len;
          t.st.checkpoint_bytes <- t.st.checkpoint_bytes + len;
          budget := !budget - len
        end)
      offs;
    p.p_shipped >= p.p_total

  let step t ~budget =
    if budget <= 0 then invalid_arg "Perseas.Checkpoint.step: budget must be positive";
    let tg = require_target t "step" in
    let p = require_inflight t "step" in
    with_target t (fun () -> ship t tg p ~budget)

  let abandon t = t.ckpt_inflight <- None

  let finalize t =
    let tg = require_target t "finalize" in
    let p = require_inflight t "finalize" in
    if t.flushing then failwith "Perseas.Checkpoint.finalize: commit propagation in flight";
    flush t;
    if Trace.Sink.enabled t.sink then
      Trace.Sink.instant t.sink ~cat:"ckpt" ~name:"cut" ~at:(Clock.now (clock t))
        ~args:[ ("phase", "finalize") ];
    let cut, truncated =
      with_target t @@ fun () ->
      ignore (ship t tg p ~budget:max_int);
      let offs, _ = seg_offsets t in
      let slot_off = Array.of_list (List.map snd offs) in
      let reship = ref 0 in
      let put seg ~off ~src_off ~len =
        slot_write t tg ~slot:p.p_slot ~off:(slot_off.(seg.index) + off) ~src_off ~len;
        reship := !reship + len
      in
      (* Bring the snapshot to the cut: re-ship every range committed
         (or conservatively dirtied by an abort) since the snapshot
         began — the images whole if the dirty log's floor rose past
         the start epoch (overflow) — then scrub in-flight transactions
         out of it, so the slot holds committed state only (the
         in-flight txn fence of the cut). *)
      List.iter
        (fun (seg, off, len) -> put seg ~off ~src_off:(Mem.Segment.base seg.local + off) ~len)
        (owed t ~since:(Some p.p_started_epoch));
      scrub_open t put;
      t.st.checkpoint_bytes <- t.st.checkpoint_bytes + !reship;
      let cut = t.epoch in
      publish t tg p ~cut;
      restart_list t ~cut;
      (* Publication done — truncate local recovery state up to the
         cut, in that order: a crash between publish and truncation
         only costs replaying state the checkpoint already covers. *)
      let hwm_before = t.st.undo_hwm_bytes in
      compact_log t;
      let truncated = max 0 (hwm_before - t.undo_tail) in
      t.st.log_truncated_bytes <- t.st.log_truncated_bytes + truncated;
      t.st.undo_hwm_bytes <- t.undo_tail;
      (cut, truncated)
    in
    (* Dirty log: fold entries at or before the cut into the summary
       that keeps [owed] complete for incremental resync. *)
    let rec pop_old acc =
      match Queue.peek_opt t.dirty with
      | Some d when d.d_epoch <= cut -> pop_old (add_dirty acc (Queue.pop t.dirty))
      | _ -> acc
    in
    let old = pop_old Imap.empty in
    if not (Imap.is_empty old) then begin
      (* Bound the summary: glue to SCI lines and, past 64 intervals
         per segment, collapse to the hull — over-copying on resync is
         safe, an unbounded interval list is the bug being fixed. *)
      let cap is =
        let is = Iset.glue is ~align:64 in
        if Iset.cardinal is <= 64 then is
        else
          match Iset.intervals is with
          | [] -> is
          | (o0, l0) :: rest ->
              let last = List.fold_left (fun _ (o, l) -> o + l) (o0 + l0) rest in
              Iset.add Iset.empty ~off:o0 ~len:(last - o0)
      in
      t.ckpt_summary <- Imap.map cap (union_by_seg t.ckpt_summary old);
      t.ckpt_summary_upto <- max t.ckpt_summary_upto cut
    end;
    (* Retired-epoch table: entries below the dirty floor can never be
       resynced incrementally anyway — drop them. *)
    let dead =
      Hashtbl.fold (fun id e acc -> if e < t.dirty_floor then id :: acc else acc) t.retired []
    in
    List.iter (Hashtbl.remove t.retired) dead;
    t.ckpt_gen <- p.p_gen;
    t.ckpt_inflight <- None;
    t.st.checkpoints_taken <- t.st.checkpoints_taken + 1;
    Trace.Gauge.set t.g_undo_tail t.undo_tail;
    (cut, truncated)

  let take t =
    start t;
    finalize t

  (* Background checkpointer, riding the event queue like the telemetry
     sampler: each tick starts a checkpoint, ships one budget's worth
     of bytes, or finalizes — so a full checkpoint spreads over many
     ticks with commits interleaving (genuinely fuzzy).  A lost target
     ends the loop's work silently (the typed error already cleared the
     target); the ticks keep firing but find nothing to do. *)
  let auto t ~events ~interval ~until ~budget =
    if budget <= 0 then invalid_arg "Perseas.Checkpoint.auto: budget must be positive";
    Events.every events ~interval ~until (fun _now ->
        (* Skip ticks while every mirror is out: start/finalize quiesce
           the group-commit queue, and flushing a staged convoy with no
           mirror raises All_mirrors_lost — the checkpoint can wait for
           the tick after the cluster heals. *)
        if (not t.flushing) && t.ckpt_target <> None && live_mirror_list t <> [] then
          try
            match t.ckpt_inflight with
            | None -> start t
            | Some _ -> if step t ~budget then ignore (finalize t)
          with Target_lost _ -> ())
end

(* ------------------------------------------------------------------ *)
(* Recovery                                                             *)

let required what = function
  | Some v -> v
  | None -> failwith (Printf.sprintf "Perseas.recover: %s not found on the memory server" what)

let recover_replicated ?(config = default_config) ?(sink = Trace.Sink.noop) ?hook ?on_repair
    ?checkpoint ?(helpers = []) ~cluster ~local ~servers () =
  if servers = [] then invalid_arg "Perseas.recover: no candidate servers";
  let nic = Cluster.nic cluster in
  let p = Sci.Nic.params nic in
  let clk = Cluster.clock cluster in
  (* Recovery phases are traced as contiguous [recovery] spans: each
     [mark] closes the phase that began where the previous one ended,
     so the four spans partition recovery's whole virtual extent. *)
  let phase_start = ref (Clock.now clk) in
  let mark name =
    if Trace.Sink.enabled sink then begin
      let stop = Clock.now clk in
      Trace.Sink.span sink ~cat:"recovery" ~name ~start:!phase_start ~stop;
      phase_start := stop
    end
  in
  (* Every remote byte recovery reads is a NIC read plan, run through
     the fault-injection hook: a crash can cut recovery at any packet. *)
  let run ?clock plan = Sci.Nic.run ?before:hook ?clock nic plan in
  let read_remote c h ~off ~len =
    let b = Bytes.create len in
    run (Client.read_planner c h ~dst:(Mem.Image.of_bytes b) ~seg_off:off ~dst_off:0 ~len);
    b
  in
  (* Probe each candidate mirror server: its epoch if it exports a
     PERSEAS metadata segment whose header reads valid. *)
  let probe server =
    if not (Netram.Server.is_alive server) then None
    else
      let client = Client.create ~cluster ~local ~server in
      Option.bind (Client.connect client ~name:(Layout.meta_name ~ns:config.namespace)) (fun meta ->
          let header = read_remote client meta ~off:0 ~len:Layout.meta_header_size in
          if Layout.read_meta_magic header <> Layout.meta_magic then None
          else Some (client, meta, Layout.read_epoch header))
  in
  let candidates = List.filter_map probe servers in
  mark "probe";
  (* Trust the mirror that reached the highest epoch: it is the only
     one that may have seen the latest commit point.  A candidate whose
     metadata turns out to be unusable (e.g. a fresh mirror that was
     halfway through attach_mirror's resync when the crash hit: magic
     and epoch landed, segment table did not) is skipped and the
     next-best epoch is tried — a torn copy must not veto recovery from
     an intact one.  The sort is stable so equal epochs keep the
     caller's server order. *)
  let ranked = List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) candidates in
  (* Remote areas read only as far as a scan needs them: a buffer the
     size of [h], filled [fetch_block] bytes at a time. *)
  let fetch_block = 4096 in
  let lazy_reader c h =
    let len = Remote_segment.len h in
    let buf = Bytes.create len in
    let read = Client.read_planner c h ~dst:(Mem.Image.of_bytes buf) in
    let fetched = ref 0 in
    let ensure upto =
      let upto = min ((upto + fetch_block - 1) / fetch_block * fetch_block) len in
      if upto > !fetched then begin
        run (read ~seg_off:!fetched ~dst_off:!fetched ~len:(upto - !fetched));
        fetched := upto
      end
    in
    (buf, ensure)
  in
  let validate (client, meta_remote, current_epoch) =
    let server = Client.server client in
    let node_id = Node.id (Netram.Server.node server) in
    try
      let undo_remote =
        required "undo segment"
          (Client.connect client ~name:(Layout.undo_name ~ns:config.namespace))
      in
      let meta_bytes =
        read_remote client meta_remote ~off:0 ~len:(Remote_segment.len meta_remote)
      in
      let nsegs = Layout.read_nsegs meta_bytes in
      if nsegs < 0 || nsegs > config.max_segments then
        failwith "Perseas.recover: corrupt segment count";
      let table = List.init nsegs (fun index -> Layout.read_table_entry meta_bytes ~index) in
      let remotes =
        List.map
          (fun (name, size) ->
            let h =
              required
                (Printf.sprintf "segment %S" name)
                (Client.connect client ~name:(Layout.db_export_name ~ns:config.namespace name))
            in
            if Remote_segment.len h <> size then
              failwith (Printf.sprintf "Perseas.recover: size mismatch for %S" name);
            (name, size, h))
          table
      in
      Some (client, server, meta_remote, undo_remote, current_epoch, meta_bytes, remotes)
    with Failure msg | Client.Unreachable msg ->
      Log.warn (fun k ->
          k "recovery: skipping candidate on node %d at epoch %Ld (%s)" node_id current_epoch msg);
      None
  in
  let rec first_usable = function
    | [] -> failwith "Perseas.recover: no server holds a recoverable database"
    | c :: rest -> ( match validate c with Some v -> v | None -> first_usable rest)
  in
  let client, server, meta_remote, undo_remote, current_epoch, meta_bytes, remotes =
    first_usable ranked
  in
  let new_epoch = Int64.add current_epoch 1L in
  let t =
    make ~config ~cluster ~local_id:local ~epoch:new_epoch
      [|
        mirror client ~meta:meta_remote ~undo:undo_remote
          ~segs:(Array.of_list (List.map (fun (_, _, h) -> h) remotes))
          ~list:None;
      |]
  in
  t.sink <- sink;
  let image = local_dram t in
  (* Repair a half-propagated commit: copy current-epoch before-images
     from the remote undo log back over the remote database, newest
     first.  These are local memory copies on the remote node.  The
     undo area is fetched lazily in 4 KiB blocks: current-epoch records
     sit at the front of the log, so recovery reads (and pays for) only
     the prefix the scan walks, not the whole reserved region. *)
  let undo_len = Remote_segment.len undo_remote in
  let undo_bytes, ensure_fetched = lazy_reader client undo_remote in
  (* Undo records of the current epoch, oldest-first with their
     headers.  The scan walks PAST intact records with a stale epoch
     tag — under concurrency, open transactions' records (tagged with
     the epoch they were cut in) sit interleaved with the batch being
     flushed — and stops only at a torn or undecodable record: the
     checksum covers the payload, so a crash mid-push can never leave a
     verifiable record with garbage behind it.  A stale record can
     never alias the current epoch because epochs only ever advance
     past their fence. *)
  (* The chain's slot stride is the one the crashed engine's config
     chose (eager: 64-byte slots pushed in place; group: the packed
     chain a flush ships) — recovery is handed that config, so the walk
     and the writer can never disagree. *)
  let slot_after =
    if config.group_commit <= 1 then Layout.undo_slot else Layout.undo_slot_packed
  in
  let records =
    let rec walk acc off =
      if off + Layout.undo_header_size > undo_len then List.rev acc
      else begin
        ensure_fetched (off + Layout.undo_header_size);
        match Layout.decode_undo_header undo_bytes ~off with
        | Some h ->
            ensure_fetched (off + Layout.undo_header_size + h.Layout.len);
            if Layout.verify_undo undo_bytes ~off h then
              let acc = if h.Layout.epoch = current_epoch then (off, h) :: acc else acc in
              walk acc (slot_after ~off ~payload_len:h.Layout.len)
            else List.rev acc
        | None -> List.rev acc
      end
    in
    walk [] 0
  in
  let remote_image = Node.dram (Netram.Server.node server) in
  let undo_base = Remote_segment.base undo_remote in
  let nremotes = List.length remotes in
  List.iter
    (fun (off, (h : Layout.undo_header)) ->
      if h.seg_index < 0 || h.seg_index >= nremotes then
        failwith
          (Printf.sprintf "Perseas.recover: undo record names unknown segment %d (database has %d)"
             h.seg_index nremotes);
      let name, _, handle = List.nth remotes h.seg_index in
      if h.off + h.len <= Remote_segment.len handle then begin
        (match hook with Some f -> f () | None -> ());
        let payload_off = undo_base + off + Layout.undo_header_size in
        Mem.Image.blit ~src:remote_image ~src_off:payload_off ~dst:remote_image
          ~dst_off:(Remote_segment.base handle + h.off) ~len:h.len;
        Clock.advance clk (Sci.Model.local_copy p h.len);
        match on_repair with Some f -> f ~name ~len:h.len | None -> ()
      end)
    (List.rev records);
  (* Invalidate the applied records by bumping the epoch remotely. *)
  Mem.Image.write_u64 remote_image (Remote_segment.base meta_remote + Layout.epoch_offset) new_epoch;
  Clock.advance clk (Sci.Model.local_copy p 8);
  mark "repair";
  write_meta_staging t;
  (* A usable checkpoint slot: the newest generation whose directory
     entry, magic fence, cut and segment table all check out.  A torn
     or stale slot (the magic word is zeroed before the first snapshot
     byte and re-written strictly last) falls back to the previous
     generation.  The cut must also lie at or after the base of the
     chosen mirror's dirty-chunk list: the list names every chunk
     written after its base, so it covers a slot cut at or after it and
     no other — not an earlier install's slot, nor a generation the list
     has moved past.  A zero base (no list kept) rules every slot out. *)
  let sizes = List.map (fun (_, size, _) -> size) remotes in
  let msize = Layout.meta_size ~max_segments:config.max_segments in
  let seg_offs, slot_size = ckpt_offsets ~meta_size:msize sizes in
  let chunk0s, nchunks = Layout.chunk_bases sizes in
  let base = Layout.read_ckpt_base meta_bytes in
  let slot_valid header =
    let cut = Layout.read_epoch header in
    let table_matches () =
      List.for_all
        (fun (index, name, size) ->
          match Layout.read_table_entry header ~index with
          | n, s -> n = name && s = size
          | exception Failure _ -> false)
        (List.mapi (fun i (n, s, _) -> (i, n, s)) remotes)
    in
    Layout.read_meta_magic header = Layout.meta_magic
    && base <= cut && cut <= current_epoch
    && Layout.read_nsegs header = nremotes
    && table_matches ()
  in
  (* The slot is adopted only where it lies, in this node's own DRAM
     (recover on the checkpoint target for the shortest recovery):
     anywhere else reading it costs as much as reading the repaired
     mirror, which recovery then does instead.  Its directory and
     header reads are local copies. *)
  let slot =
    match checkpoint with
    | Some (Ram_source cserver)
      when base <> 0L
           && Netram.Server.is_alive cserver
           && Node.id (Netram.Server.node cserver) = local -> (
        let read h ~len =
          Clock.advance clk (Sci.Model.local_copy p len);
          Mem.Image.read_bytes image ~off:(Remote_segment.base h) ~len
        in
        let lookup name = Netram.Server.lookup cserver ~name in
        let adoptable gen =
          if gen <= 0L then None
          else
            match
              lookup (Layout.ckpt_slot_name ~ns:config.namespace ~slot:(Int64.to_int (Int64.rem gen 2L)))
            with
            | Some h when Remote_segment.len h = slot_size && slot_valid (read h ~len:msize) ->
                Some (Remote_segment.base h)
            | _ -> None
        in
        Option.bind (lookup (Layout.ckpt_dir_name ~ns:config.namespace)) (fun dir ->
            let dgen = Bytes.get_int64_le (read dir ~len:8) 0 in
            let newest = match adoptable dgen with None -> adoptable (Int64.pred dgen) | s -> s in
            Option.map (fun s -> (s, dir)) newest))
    | _ -> None
  in
  (* The one segment whose chunk numbers hold the run [first, +count),
     or -1. *)
  let seg_chunks =
    Array.of_list (List.map2 (fun c0 size -> (c0, Layout.chunk_count ~size)) chunk0s sizes)
  in
  let seg_of_run first count =
    let rec find i =
      if i = Array.length seg_chunks then -1
      else
        let c0, n = seg_chunks.(i) in
        if first >= c0 && first + count <= c0 + n then i else find (i + 1)
    in
    if count <= 0 then -1 else find 0
  in
  (* The chunks the slot does not hold current: those the mirror's list
     names.  Only the list's used prefix is read, block by block up to
     the first entry at or below the base — what recovery reads here
     grows with the work done since the cut, not with the database.
     Every named chunk is marked once; the result is the list buffer,
     the number of entries and the marks.  A full list, or one naming a
     run outside every segment, names nothing reliably: no adoption. *)
  let read_list () =
    match Client.connect client ~name:(Layout.dirty_list_name ~ns:config.namespace) with
    | Some h when Remote_segment.len h = dirty_list_size ->
        let buf, ensure = lazy_reader client h in
        let marks = Bytes.make ((nchunks + 7) / 8) '\000' in
        let rec walk pos =
          if pos = Layout.dirty_capacity then None
          else begin
            let off = pos * Layout.dirty_entry_size in
            ensure (off + Layout.dirty_entry_size);
            let first = Layout.dirty_entry_first buf ~off
            and count = Layout.dirty_entry_count buf ~off in
            if Layout.dirty_entry_epoch buf ~off <= base then Some (buf, pos, marks)
            else if seg_of_run first count < 0 then None
            else begin
              for c = first to first + count - 1 do
                bit_put marks c true
              done;
              walk (pos + 1)
            end
          end
        in
        walk 0
    | _ -> None
  in
  let adopt =
    Option.bind slot (fun source -> Option.map (fun list -> (source, list)) (read_list ()))
  in
  (* The fetch.  Each segment's image is the slot's, adopted where it
     lies, or else the mirror's, one remote-to-local copy per segment
     (paper, end of section 3); over an adopted slot every chunk the
     list names comes from the mirror.  Remote reads are NIC read plans
     dealt to 1 + N streams, the helper nodes each pulling a share: each
     plan goes to the stream with the least virtual time dealt so far,
     and virtual time advances by the slowest stream plus one
     coordination round trip per helper.  A segment read larger than
     one stream's share of the image bytes is cut into reads of that
     size, so a database dominated by one table still spreads over the
     streams.  Stream costs are charged at this node's hop count — a
     deliberate simplification: the helpers sit on the same SCI ring. *)
  let nstreams = 1 + List.length helpers in
  let start = Clock.now clk in
  let streams =
    if nstreams = 1 then [| clk |] else Array.init nstreams (fun _ -> Clock.create ~at:start ())
  in
  let dealt = Array.make nstreams Time.zero in
  let plans = ref [] in
  let fetch plan =
    let s = ref 0 in
    Array.iteri (fun i d -> if d < dealt.(!s) then s := i) dealt;
    dealt.(!s) <- dealt.(!s) + Sci.Nic.plan_latency plan;
    plans := (streams.(!s), plan) :: !plans
  in
  let share = Layout.align64 ((List.fold_left ( + ) 0 sizes + nstreams - 1) / nstreams) in
  let fetch_image planner ~seg_off ~dst_off ~len =
    let rec cut off =
      if off < len then begin
        let n = min share (len - off) in
        fetch (planner ~seg_off:(seg_off + off) ~dst_off:(dst_off + off) ~len:n);
        cut (off + n)
      end
    in
    cut 0
  in
  let fetch_segment index (((name, size, handle), slot_off), chunk0) =
    let local =
      match adopt with
      | Some ((slot_base, _), _) ->
          (* Zero-copy adoption: the recovered database takes ownership
             of the slot's bytes where they lie. *)
          Mem.Segment.v ~base:(slot_base + slot_off) ~len:size
      | None ->
          let local = alloc_local t size (Printf.sprintf "segment %S" name) in
          fetch_image (Client.read_planner client handle ~dst:image) ~seg_off:0
            ~dst_off:(Mem.Segment.base local) ~len:size;
          local
    in
    { seg_name = name; index; size; local; chunk0 }
  in
  let segs = List.mapi fetch_segment (List.combine (List.combine remotes seg_offs) chunk0s) in
  t.segs <- List.rev segs;
  (match adopt with
  | None -> ()
  | Some (_, (buf, n, marks)) ->
      (* The invariant: a chunk is current in the slot unless the
         mirror's list names it.  Every commit after the base appends
         its unnamed runs to every live mirror's list before its fence;
         a joiner receives every entry since the base.  Each named
         chunk is fetched once, in maximal runs: each entry's run grows
         over marked neighbours, unmarking as it goes.  Only chunks of
         a segment are marked and numbers leave a gap between
         segments, so no run spans two. *)
      let segs = Array.of_list segs in
      let planners =
        Array.of_list (List.map (fun (_, _, h) -> Client.read_planner client h ~dst:image) remotes)
      in
      for pos = 0 to n - 1 do
        let first = Layout.dirty_entry_first buf ~off:(pos * Layout.dirty_entry_size) in
        if bit_get marks first then begin
          let lo = ref first and hi = ref first in
          while !lo > 0 && bit_get marks (!lo - 1) do decr lo done;
          while !hi < nchunks && bit_get marks !hi do incr hi done;
          for c = !lo to !hi - 1 do
            bit_put marks c false
          done;
          let i = seg_of_run !lo (!hi - !lo) in
          let seg = segs.(i) in
          let off = (!lo - seg.chunk0) * Layout.chunk_bytes in
          let len = min seg.size ((!hi - seg.chunk0) * Layout.chunk_bytes) - off in
          fetch (planners.(i) ~seg_off:off ~dst_off:(Mem.Segment.base seg.local + off) ~len)
        end
      done);
  Sci.Nic.run_all ?before:hook nic (List.rev !plans);
  if nstreams > 1 then
    Clock.advance clk
      (Array.fold_left (fun acc s -> max acc (Clock.now s - start)) Time.zero streams);
  List.iter (fun _ -> Clock.advance clk (Client.rpc_time client)) helpers;
  (* After in-place adoption the slot region IS the live database:
     invalidate the local directory so no later recovery can mistake it
     for a checkpoint again. *)
  Option.iter (fun ((_, dir), _) -> Mem.Image.write_u64 image (Remote_segment.base dir) 0L) adopt;
  (* The recovered engine keeps no list until a target is attached and
     a checkpoint published again: zero the mirror's base word so no
     later recovery trusts entries nobody appends. *)
  if base <> 0L then
    run
      (Client.plan_write client ~widen:false meta_remote ~seg_off:Layout.ckpt_base_offset
         ~src_off:(Mem.Segment.base t.meta_local + Layout.ckpt_base_offset)
         ~len:8);
  mark "fetch_db";
  (* Re-establish the remaining mirrors: the survivors may be behind
     (their epoch writes were cut by the crash), so they get a full
     resync — which attach_mirror performs, through the same hook. *)
  t.hook <- hook;
  Fun.protect
    ~finally:(fun () -> t.hook <- None)
    (fun () ->
      List.iter
        (fun s ->
          if
            Netram.Server.is_alive s
            && Node.id (Netram.Server.node s) <> Node.id (Netram.Server.node server)
          then
            try attach_mirror t ~server:s
            with Failure msg | Client.Unreachable msg ->
              Log.warn (fun k ->
                  k "could not re-attach mirror on node %d during recovery: %s"
                    (Node.id (Netram.Server.node s)) msg))
        servers);
  mark "resync_mirrors";
  (* Whatever factor recovery achieved is the new baseline; degraded
     accounting starts from here (a supervisor may raise it again). *)
  t.repl_target <- max 1 (mirror_count t);
  t

let recover ?config ?sink ?hook ?on_repair ?checkpoint ?helpers ~cluster ~local ~server () =
  recover_replicated ?config ?sink ?hook ?on_repair ?checkpoint ?helpers ~cluster ~local
    ~servers:[ server ] ()

(* ------------------------------------------------------------------ *)
(* Archive: graceful shutdown to stable storage (paper, section 1:
   scheduled shutdowns are the one case where the whole cluster may go
   down, so the database writes itself out first). *)

let archive t device =
  if t.flushing then failwith "Perseas.archive: commit propagation in flight";
  flush t;
  (* Open transactions' uncommitted bytes live in the local image the
     archive would copy out, so — unlike mirror membership changes —
     archiving still insists on full quiescence. *)
  if t.open_txns <> [] then failwith "Perseas.archive: close the open transactions first";
  if not t.ready then failwith "Perseas.archive: nothing to archive before init_remote_db";
  let image = local_dram t in
  Disk.Device.write device ~off:0 (meta_image t t.epoch);
  let off = ref (meta_size t) in
  List.iter
    (fun seg ->
      if !off + seg.size > Disk.Device.capacity device then failwith "Perseas.archive: device too small";
      Disk.Device.write device ~off:!off
        (Mem.Image.read_bytes image ~off:(Mem.Segment.base seg.local) ~len:seg.size);
      off := !off + seg.size)
    (segments t)

let restore_from_archive ?(config = default_config) ~clients device =
  let meta = Disk.Device.read device ~off:0 ~len:(Layout.meta_size ~max_segments:config.max_segments) in
  if Layout.read_meta_magic meta <> Layout.meta_magic then
    failwith "Perseas.restore_from_archive: no archive on this device";
  let nsegs = Layout.read_nsegs meta in
  if nsegs < 0 || nsegs > config.max_segments then
    failwith "Perseas.restore_from_archive: corrupt segment count";
  let t = init_replicated ~config clients in
  let off = ref (meta_size t) in
  for index = 0 to nsegs - 1 do
    let name, size = Layout.read_table_entry meta ~index in
    let seg = malloc t ~name ~size in
    let data = Disk.Device.read device ~off:!off ~len:size in
    write t seg ~off:0 data;
    off := !off + size
  done;
  init_remote_db t;
  t

module Engine = struct
  type nonrec t = t
  type nonrec segment = segment
  type nonrec txn = txn

  let name = "PERSEAS"
  let malloc = malloc
  let find_segment = segment
  let init_done = init_remote_db
  let begin_transaction t = begin_transaction t
  let set_range txn seg ~off ~len = set_range txn seg ~off ~len
  let commit = commit
  let abort = abort
  let write = write
  let read = read
end

type db = t

(* ------------------------------------------------------------------ *)
(* Self-healing supervisor: failure detection + spare-pool recruitment *)

module Supervisor = struct
  type policy = {
    probe_interval : Time.t;
    max_attempts : int;
    backoff_initial : Time.t;
    backoff_factor : float;
  }

  let default_policy =
    { probe_interval = Time.us 50.0; max_attempts = 6; backoff_initial = Time.us 100.0; backoff_factor = 2.0 }

  type event =
    | Mirror_lost of { at : Time.t; node_id : int }
    | Recruited of { at : Time.t; node_id : int; report : resync_report }
    | Attempt_failed of { at : Time.t; node_id : int; attempt : int; reason : string }
    | Gave_up of { at : Time.t; node_id : int; attempts : int }

  type t = {
    db : db;
    policy : policy;
    target : int;
    mutable spares : Netram.Server.t list; (* FIFO: head is tried next *)
    mutable known_live : int list;
    mutable last_probe : Time.t option;
    mutable attempts : int; (* consecutive failed recruit attempts *)
    mutable retry_at : Time.t; (* no recruit attempts before this instant *)
    mutable gave_up : bool;
    mutable events : event list; (* newest first *)
  }

  let now sup = Clock.now (clock sup.db)

  let push sup e =
    sup.events <- e :: sup.events;
    let sink = sup.db.sink in
    if Trace.Sink.enabled sink then begin
      match e with
      | Mirror_lost { at; node_id } ->
          Trace.Sink.instant sink ~cat:"supervisor" ~name:"mirror_lost" ~at
            ~args:[ ("node", string_of_int node_id) ]
      | Recruited { at; node_id; report } ->
          Trace.Sink.instant sink ~cat:"supervisor" ~name:"recruited" ~at
            ~args:
              [
                ("node", string_of_int node_id);
                ("mode", (match report.mode with Full -> "full" | Incremental -> "incremental"));
                ("bytes", string_of_int report.bytes_copied);
              ]
      | Attempt_failed { at; node_id; attempt; reason } ->
          Trace.Sink.instant sink ~cat:"supervisor" ~name:"attempt_failed" ~at
            ~args:[ ("node", string_of_int node_id); ("attempt", string_of_int attempt); ("reason", reason) ]
      | Gave_up { at; node_id; attempts } ->
          Trace.Sink.instant sink ~cat:"supervisor" ~name:"gave_up" ~at
            ~args:[ ("node", string_of_int node_id); ("attempts", string_of_int attempts) ]
    end

  let create ?(policy = default_policy) ?target ?(spares = []) db =
    if policy.max_attempts <= 0 then invalid_arg "Supervisor.create: max_attempts must be positive";
    if policy.backoff_factor < 1.0 then invalid_arg "Supervisor.create: backoff_factor must be >= 1";
    let target = match target with Some n -> n | None -> mirror_count db in
    if target <= 0 then invalid_arg "Supervisor.create: target must be positive";
    (* The supervisor's target is THE replication target: align the
       engine's degraded-time accounting with it. *)
    set_replication_target db target;
    {
      db;
      policy;
      target;
      spares;
      known_live = live_mirrors db;
      last_probe = None;
      attempts = 0;
      retry_at = Time.zero;
      gave_up = false;
      events = [];
    }

  (* A fresh spare resets the retry budget: the pool changed, so the
     run of failures that exhausted it is no longer representative. *)
  let add_spare sup server =
    sup.spares <- sup.spares @ [ server ];
    sup.attempts <- 0;
    sup.retry_at <- now sup;
    sup.gave_up <- false

  let backoff_after sup =
    let d =
      float_of_int sup.policy.backoff_initial
      *. (sup.policy.backoff_factor ** float_of_int (sup.attempts - 1))
    in
    sup.retry_at <- now sup + int_of_float d

  (* One supervision step, meant to run at transaction boundaries.
     Cheap when nothing changed: probes at most once per
     [probe_interval], and only attempts recruitment when the
     replication factor is below target, a spare is available, and the
     backoff window has passed.  Never raises: a database that is
     merely degraded must keep committing. *)
  let tick sup =
    let db = sup.db in
    (* 1. Throttled liveness probe, so corpses are retired before the
       next commit half-writes to them. *)
    (match sup.last_probe with
    | Some at when now sup - at < sup.policy.probe_interval -> ()
    | _ ->
        sup.last_probe <- Some (now sup);
        ignore (probe_mirrors db));
    (* 2. Note losses — from our probe or from in-line drops since the
       last tick. *)
    let live = live_mirrors db in
    List.iter
      (fun id -> if not (List.mem id live) then push sup (Mirror_lost { at = now sup; node_id = id }))
      sup.known_live;
    sup.known_live <- live;
    (* 3. Repair: recruit spares until back at target, rotating flaky
       spares to the back of the pool with exponential backoff. *)
    let rec repair () =
      if (not sup.gave_up) && mirror_count db < sup.target && now sup >= sup.retry_at then
        match sup.spares with
        | [] -> ()
        | server :: rest ->
            let node_id = Node.id (Netram.Server.node server) in
            let outcome =
              try `Recruited (recruit_mirror db ~server) with
              | Invalid_argument _ ->
                  (* Already in the live set — e.g. a pause shorter
                     than a probe interval: a stale spare, not a
                     failure. *)
                  `Discard
              | Client.Unreachable msg | Failure msg -> `Failed msg
              | All_mirrors_lost -> `Failed "all mirrors lost during resync"
            in
            (match outcome with
            | `Recruited report ->
                sup.spares <- rest;
                sup.attempts <- 0;
                sup.known_live <- live_mirrors db;
                push sup (Recruited { at = now sup; node_id; report })
            | `Discard -> sup.spares <- rest
            | `Failed reason ->
                sup.attempts <- sup.attempts + 1;
                sup.spares <- rest @ [ server ];
                push sup (Attempt_failed { at = now sup; node_id; attempt = sup.attempts; reason });
                if sup.attempts >= sup.policy.max_attempts then begin
                  sup.gave_up <- true;
                  push sup (Gave_up { at = now sup; node_id; attempts = sup.attempts })
                end
                else backoff_after sup);
            repair ()
    in
    repair ()

  let events sup = List.rev sup.events
  let spares sup = List.map (fun s -> Node.id (Netram.Server.node s)) sup.spares
  let target sup = sup.target
  let gave_up sup = sup.gave_up
  let retry_at sup = sup.retry_at
  let degraded sup = mirror_count sup.db < sup.target

  (* Health gauges, refreshed at sample time only (pure observer). *)
  let set_telemetry sup tel =
    Trace.Timeseries.on_sample tel (fun _at ->
        Trace.Timeseries.set tel "sup.spares" (List.length sup.spares);
        Trace.Timeseries.set tel "sup.degraded" (if degraded sup then 1 else 0);
        Trace.Timeseries.set tel "sup.deficit" (max 0 (sup.target - mirror_count sup.db));
        Trace.Timeseries.set tel "sup.gave_up" (if sup.gave_up then 1 else 0))
end

(* ------------------------------------------------------------------ *)
(* Sharded multi-primary router with STAR-style phase switching *)

module Shard = struct
  module Map = Cluster.Shard_map
  module Phase = Cluster.Phase

  type member = {
    sh_id : int;
    mutable sh_db : db;
    mutable sh_committed : int; (* single-shard transactions routed here *)
  }

  type cross = {
    x_id : int;
    x_shards : int list; (* sorted, distinct *)
    x_run : (int -> db * txn) -> unit;
  }

  type router = {
    members : member array;
    map : Map.t;
    phase : Phase.t;
    mutable queue : cross list; (* FIFO: head drains first *)
    mutable next_xid : int;
    mutable cross_done : int; (* cross-shard transactions committed *)
    mutable cross_bounced : int; (* drain attempts bounced by a conflict *)
  }

  type nonrec t = router

  type shard_stats = {
    per_shard : int array;
    cross_committed : int;
    cross_conflicts : int;
    backlog : int;
    switches : int; (* single-master phases entered *)
    phase_epoch : int;
  }

  let create ?strategy ?interval ?(master = 0) dbs =
    let n = Array.length dbs in
    if n < 1 then invalid_arg "Shard.create: at least one shard";
    if master < 0 || master >= n then invalid_arg "Shard.create: master out of range";
    {
      members = Array.mapi (fun i d -> { sh_id = i; sh_db = d; sh_committed = 0 }) dbs;
      map = Map.create ?strategy ~shards:n ();
      phase = Phase.create ?interval ~master ();
      queue = [];
      next_xid = 0;
      cross_done = 0;
      cross_bounced = 0;
    }

  let shards sh = Array.length sh.members
  let db sh i = sh.members.(i).sh_db
  let replace sh ~shard d = sh.members.(shard).sh_db <- d
  let owner sh ~key = Map.owner sh.map ~key
  let phase sh = sh.phase
  let backlog sh = List.length sh.queue

  (* Each shard's primary runs on its own cluster and therefore its own
     virtual clock: between fences the clocks advance independently,
     which is exactly the model of [shards] workstations committing in
     parallel.  Cluster time is the frontier — the farthest any shard
     has gotten. *)
  let now sh =
    Array.fold_left (fun acc m -> max acc (Clock.now (clock m.sh_db))) Time.zero sh.members

  let sync_clocks sh =
    let frontier = now sh in
    Array.iter (fun m -> Clock.advance_to (clock m.sh_db) frontier) sh.members

  (* The phase fence: drain every shard's group-commit convoy (the
     existing [flush] path — epoch fence strictly last per mirror),
     then line the clocks up on the frontier.  After a fence every
     committed transaction on every shard is durable and no shard is
     mid-convoy, which is the quiescence the single-master phase
     needs. *)
  let fence sh =
    Array.iter (fun m -> flush m.sh_db) sh.members;
    sync_clocks sh

  let each_sink sh f =
    Array.iter (fun m -> if Trace.Sink.enabled m.sh_db.sink then f m.sh_db) sh.members

  let phase_instant sh kind =
    each_sink sh (fun d ->
        Trace.Sink.instant d.sink ~cat:"cluster" ~name:"phase_switch"
          ~at:(Clock.now (clock d))
          ~args:
            [
              ("phase", Phase.kind_label kind);
              ("pepoch", string_of_int (Phase.epoch sh.phase));
              ("master", string_of_int (Phase.master sh.phase));
            ])

  let cross_instant sh x =
    List.iter
      (fun sid ->
        let d = sh.members.(sid).sh_db in
        if Trace.Sink.enabled d.sink then
          Trace.Sink.instant d.sink ~cat:"cluster" ~name:"cross_commit"
            ~at:(Clock.now (clock d))
            ~args:
              [
                ("xid", string_of_int x.x_id);
                ("shards", String.concat "+" (List.map string_of_int x.x_shards));
              ])
      x.x_shards

  (* Run one queued cross-shard transaction: open a sub-transaction on
     each involved shard on demand, run the body, then commit the
     sub-transactions in shard order.  A conflict with a still-open
     single-shard transaction aborts the opened subs and reports
     [`Conflicted] — the cross transaction stays queued for the next
     drain, by which point the older holder has committed. *)
  let run_cross sh x =
    let opened = ref [] in
    let get sid =
      if not (List.mem sid x.x_shards) then
        invalid_arg "Shard.submit_cross: body touched an undeclared shard";
      match List.assoc_opt sid !opened with
      | Some txn -> (sh.members.(sid).sh_db, txn)
      | None ->
          let txn =
            begin_transaction ~client:(Printf.sprintf "cross-%d" x.x_id) sh.members.(sid).sh_db
          in
          opened := (sid, txn) :: !opened;
          (sh.members.(sid).sh_db, txn)
    in
    match
      x.x_run get;
      List.iter
        (fun sid -> match List.assoc_opt sid !opened with Some txn -> commit txn | None -> ())
        x.x_shards
    with
    | () ->
        cross_instant sh x;
        `Committed
    | exception Conflict _ ->
        List.iter
          (fun (_, txn) -> match txn.state with Open -> abort txn | _ -> ())
          !opened;
        `Conflicted

  (* The single-master phase: fence into quiescence, declare the switch
     on every shard's trace stream, run the backlog serially on the
     synchronized clocks (the designated master executes; the involved
     shards' engines apply), fence the resulting convoys out, and
     switch back.  Commits of cross-shard transactions therefore land
     strictly inside the single-master window — the invariant
     {!Trace.Monitor} checks from the instants. *)
  let drain sh =
    if sh.queue = [] then 0
    else begin
      fence sh;
      Phase.begin_single_master sh.phase ~at:(now sh);
      phase_instant sh Phase.Single_master;
      let q = sh.queue in
      sh.queue <- [];
      let committed = ref 0 and requeued = ref [] in
      List.iter
        (fun x ->
          sync_clocks sh;
          match run_cross sh x with
          | `Committed -> incr committed
          | `Conflicted ->
              sh.cross_bounced <- sh.cross_bounced + 1;
              requeued := x :: !requeued)
        q;
      sh.cross_done <- sh.cross_done + !committed;
      sh.queue <- List.rev !requeued;
      fence sh;
      Phase.end_single_master sh.phase ~drained:!committed ~at:(now sh);
      phase_instant sh Phase.Partitioned;
      !committed
    end

  let tick sh = if Phase.due sh.phase ~now:(now sh) then ignore (drain sh)

  (* Single-shard fast path: route to the owner, commit on its primary.
     No other shard's clock moves — full parallelism in virtual time. *)
  let submit sh ~key body =
    tick sh;
    let s = owner sh ~key in
    let m = sh.members.(s) in
    let txn = begin_transaction m.sh_db in
    body m.sh_db txn;
    commit txn;
    m.sh_committed <- m.sh_committed + 1;
    s

  (* Cross-shard transactions queue for the next single-master phase
     rather than coordinating 2PC over network RAM. *)
  let submit_cross sh ~shards:involved body =
    let involved = List.sort_uniq compare involved in
    if involved = [] then invalid_arg "Shard.submit_cross: no shards";
    List.iter
      (fun s ->
        if s < 0 || s >= Array.length sh.members then
          invalid_arg "Shard.submit_cross: shard out of range")
      involved;
    let x = { x_id = sh.next_xid; x_shards = involved; x_run = body } in
    sh.next_xid <- sh.next_xid + 1;
    sh.queue <- sh.queue @ [ x ];
    Phase.enqueue sh.phase;
    tick sh;
    x.x_id

  let stats sh =
    {
      per_shard = Array.map (fun m -> m.sh_committed) sh.members;
      cross_committed = sh.cross_done;
      cross_conflicts = sh.cross_bounced;
      backlog = List.length sh.queue;
      switches = Phase.single_master_phases sh.phase;
      phase_epoch = Phase.epoch sh.phase;
    }
end
