(* The paper's analytic cost model, run online as a trace observer.

   PERSEAS's evaluation derives packets-per-operation in closed form:
   an undo push costs the packetisation of its (possibly 64-byte
   widened) record, a commit ships the write-set's coalesced runs plus
   (while a dirty-chunk list is kept) one list entry per run of touched
   chunks, appended in one store, and one 8-byte fence, and a
   group-commit convoy packs the batch's records into a dense chain and
   pays the same per-run arithmetic.
   This module re-derives those equations from the engine's
   configuration alone — mirror factor, [group_commit],
   [redundancy_elision], [optimized_memcpy], the NIC's 64/16-byte line
   geometry — and checks them live against the NIC's piece stream:
   every commit unit's measured packets (the counts its SCI pieces
   carry) are compared to the prediction the moment that unit's fence
   piece lands, and any difference raises a typed {!drift} alert.

   The model is deliberately independent of the engine's own dry runs
   ([commit_packets], [flush_step_count]): it never calls into
   [Sci.Packet] or [Sci.Nic], replicating the packetisation and
   widening arithmetic from the segment-relative offsets the spans
   carry.  That works because every segment — local and remote — is
   allocated 64-byte aligned, so congruences and line boundaries are
   identical in segment-relative and physical space.

   Scope: predictions are exact for sequential runs (no doomed
   transactions, no stale-record re-push, no log compaction).
   Concurrent interference shows up as measured > predicted — which is
   precisely the drift the alert exists to surface. *)

open Perseas

type cost = { pkts64 : int; pkts16 : int; bytes : int }

let cost_zero = { pkts64 = 0; pkts16 = 0; bytes = 0 }

let cost_add a b =
  { pkts64 = a.pkts64 + b.pkts64; pkts16 = a.pkts16 + b.pkts16; bytes = a.bytes + b.bytes }

let cost_packets c = c.pkts64 + c.pkts16

let pp_cost ppf c =
  Format.fprintf ppf "%d pkt64 + %d pkt16, %d B" c.pkts64 c.pkts16 c.bytes

type drift = {
  d_unit : string;  (* commit-unit key: "t<id>" (eager) or "c<n>" (convoy) *)
  d_node : int;
  d_class : string; (* "unit" for the per-fence check, "window" for totals *)
  d_predicted : cost;
  d_measured : cost;
}

let describe d =
  Format.asprintf "unit %s on node %d: measured %a, predicted %a" d.d_unit d.d_node pp_cost
    d.d_measured pp_cost d.d_predicted

(* Per-transaction replay of the engine's write-set bookkeeping. *)
type txn_state = {
  mutable x_wset : (int * Iset.t) list; (* seg index -> declared set, ascending *)
  mutable x_recs : (int * int) list; (* (slot, payload_len), newest first *)
  mutable x_frags : (int * int * int) list; (* (seg idx, off, len) logged, newest first *)
  mutable x_undo : cost; (* eager undo pushes predicted, per node *)
}

let fresh_txn () = { x_wset = []; x_recs = []; x_frags = []; x_undo = cost_zero }

(* One commit unit's prediction, per node (every live mirror receives
   the identical byte stream). *)
type unit_pred = { u_undo : cost; u_data : cost; u_segmeta : cost; u_fence : cost }

let unit_total u = cost_add u.u_undo (cost_add u.u_data (cost_add u.u_segmeta u.u_fence))

(* The engine's dirty-chunk list, replayed: each segment's first chunk
   number, the list position the next append lands at, and which chunks
   the list names already. *)
type list_shadow = { first_chunk : int array; mutable pos : int; named : (int, unit) Hashtbl.t }

type t = {
  group : int;
  elision : bool;
  opt_memcpy : bool;
  undo_cap : int;
  tracking : list_shadow option;
  buffer : int;
  sub : int;
  threshold : int;
  on_drift : drift -> unit;
  txns : (string, txn_state) Hashtbl.t;
  mutable staged : (string * txn_state) list; (* staging order *)
  mutable seg_sizes : (int * int) list; (* seg index -> size *)
  mutable tail : int; (* shadow of the engine's undo_tail *)
  units : (string, unit_pred) Hashtbl.t;
  measured : (string * int, cost) Hashtbl.t; (* (unit, node) -> so far *)
  mutable alerts : drift list; (* newest first *)
  mutable nchecked : int;
  mutable predicted_total : cost;
  mutable unattributed : cost;
  class_pred : (string, cost) Hashtbl.t;
  class_meas : (string, cost) Hashtbl.t;
}

let create ?tracking ?(on_drift = fun _ -> ())
    ~(config : Perseas.config) ~(params : Sci.Params.t) () =
  {
    group = config.group_commit;
    elision = config.redundancy_elision;
    opt_memcpy = config.optimized_memcpy;
    undo_cap = config.undo_capacity;
    tracking =
      Option.map
        (fun sizes ->
          (* Chunks numbered back to back, one unused number after each
             segment. *)
          let next = ref 0 in
          let first_chunk =
            Array.of_list
              (List.map
                 (fun size ->
                   let first = !next in
                   next := first + ((size + Layout.chunk_bytes - 1) / Layout.chunk_bytes) + 1;
                   first)
                 sizes)
          in
          { first_chunk; pos = 0; named = Hashtbl.create 256 })
        tracking;
    buffer = params.Sci.Params.buffer_bytes;
    sub = params.Sci.Params.subblock_bytes;
    threshold = Sci.Params.memcpy_threshold params;
    on_drift;
    txns = Hashtbl.create 16;
    staged = [];
    seg_sizes = [];
    tail = 0;
    units = Hashtbl.create 64;
    measured = Hashtbl.create 16;
    alerts = [];
    nchecked = 0;
    predicted_total = cost_zero;
    unattributed = cost_zero;
    class_pred = Hashtbl.create 8;
    class_meas = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* The analytic equations: packetisation and widening, re-derived      *)

(* Packets of a write burst covering [off, off+len) in destination
   space: one full-line packet per fully covered [buffer]-byte line,
   one partial packet per touched [sub]-byte sub-block otherwise. *)
let packets_of_range t ~off ~len =
  let finish = off + len in
  let rec buffers acc pos =
    if pos >= finish then acc
    else
      let buf_base = pos / t.buffer * t.buffer in
      let buf_end = buf_base + t.buffer in
      let cover_end = min finish buf_end in
      if pos = buf_base && cover_end = buf_end then
        buffers { acc with pkts64 = acc.pkts64 + 1 } buf_end
      else
        let rec subblocks acc pos =
          if pos >= cover_end then acc
          else
            let sb_end = min cover_end ((pos / t.sub * t.sub) + t.sub) in
            subblocks { acc with pkts16 = acc.pkts16 + 1 } sb_end
        in
        buffers (subblocks acc pos) cover_end
  in
  if len <= 0 then cost_zero else buffers { cost_zero with bytes = len } off

(* One remote write of [len] bytes at segment-relative [dst_off], from
   local offset [src_off], into a window of [window_len] bytes: the
   sci_memcpy widening applies when requested, the copy clears the
   threshold, and source and destination agree modulo the line size. *)
let write_cost t ~widen ~window_len ~src_off ~dst_off ~len =
  let dst_off', len' =
    if widen && len > t.threshold && src_off mod t.buffer = dst_off mod t.buffer then begin
      let lo = max 0 (dst_off / t.buffer * t.buffer) in
      let hi = min window_len ((dst_off + len + t.buffer - 1) / t.buffer * t.buffer) in
      if lo <= dst_off && hi >= dst_off + len then (lo, hi - lo) else (dst_off, len)
    end
    else (dst_off, len)
  in
  packets_of_range t ~off:dst_off' ~len:len'

(* An 8-byte epoch store: below the widening threshold, so exactly its
   packetisation. *)
let epoch_write_cost t ~dst_off = packets_of_range t ~off:dst_off ~len:8

let fence_cost t = epoch_write_cost t ~dst_off:Layout.epoch_offset

(* ------------------------------------------------------------------ *)
(* Span-driven state machine                                           *)

let find_txn t id =
  match Hashtbl.find_opt t.txns id with
  | Some x -> x
  | None ->
      let x = fresh_txn () in
      Hashtbl.add t.txns id x;
      x

let seg_iset x idx = match List.assoc_opt idx x.x_wset with Some s -> s | None -> Iset.empty

let set_seg_iset x idx s =
  x.x_wset <- List.sort compare ((idx, s) :: List.remove_assoc idx x.x_wset)

let undo_slot_stride t ~off ~payload_len =
  if t.group <= 1 then Layout.undo_slot ~off ~payload_len
  else Layout.undo_slot_packed ~off ~payload_len

(* Reset the shadow tail exactly when the engine's [close] would: the
   log quiesces once no transaction is open or staged. *)
let maybe_quiesce t =
  if Hashtbl.length t.txns = 0 && t.staged = [] then t.tail <- 0

let on_set_range t args =
  match
    ( List.assoc_opt "txn" args,
      Option.bind (List.assoc_opt "idx" args) int_of_string_opt,
      Option.bind (List.assoc_opt "off" args) int_of_string_opt,
      Option.bind (List.assoc_opt "len" args) int_of_string_opt,
      Option.bind (List.assoc_opt "size" args) int_of_string_opt )
  with
  | Some id, Some idx, Some off, Some len, Some size ->
      if not (List.mem_assoc idx t.seg_sizes) then t.seg_sizes <- (idx, size) :: t.seg_sizes;
      let x = find_txn t id in
      let prior = seg_iset x idx in
      let fragments = if t.elision then Iset.uncovered prior ~off ~len else [ (off, len) ] in
      List.iter
        (fun (foff, flen) ->
          let slot = t.tail in
          let record_len = Layout.undo_header_size + flen in
          if t.group <= 1 then
            (* Eager: the record ships to every mirror's log now, from
               the identically-placed local slot, widened like the
               engine's plan_write (window = the whole undo log). *)
            x.x_undo <-
              cost_add x.x_undo
                (write_cost t ~widen:t.opt_memcpy ~window_len:t.undo_cap ~src_off:slot
                   ~dst_off:slot ~len:record_len);
          x.x_recs <- (slot, flen) :: x.x_recs;
          x.x_frags <- (idx, foff, flen) :: x.x_frags;
          t.tail <- undo_slot_stride t ~off:slot ~payload_len:flen)
        fragments;
      set_seg_iset x idx (Iset.add prior ~off ~len)
  | _ -> ()

(* The commit propagation list, replicated from [Perseas.commit]'s:
   with elision the per-segment coalesced runs (line-glued under
   optimized_memcpy), without it the raw logged fragments oldest first
   — each run one widened remote write into its data segment.  Packet
   counts per plan are independent, so summing per-run costs matches
   the engine whichever way the runs are batched into plans. *)
let data_cost t x =
  let run_cost idx ~off ~len =
    let window_len = Option.value ~default:max_int (List.assoc_opt idx t.seg_sizes) in
    write_cost t ~widen:t.opt_memcpy ~window_len ~src_off:off ~dst_off:off ~len
  in
  if t.elision then
    List.fold_left
      (fun acc (idx, iset) ->
        let iset = if t.opt_memcpy then Iset.glue iset ~align:64 else iset in
        List.fold_left
          (fun acc (off, len) -> cost_add acc (run_cost idx ~off ~len))
          acc (Iset.intervals iset))
      cost_zero x.x_wset
  else
    List.fold_left
      (fun acc (idx, off, len) -> cost_add acc (run_cost idx ~off ~len))
      cost_zero (List.rev x.x_frags)

(* The list append of a write-set [(seg index, declared set)]
   (ascending): one entry per run of adjacent chunks the list does not
   name yet, as many as still fit, stored raw at the list's tail in one
   piece. *)
let segmeta_cost t wset =
  match t.tracking with
  | None -> cost_zero
  | Some l ->
      let runs =
        List.fold_left
          (fun acc (idx, iset) ->
            List.fold_left
              (fun acc (off, len) ->
                let first = l.first_chunk.(idx) + (off / Layout.chunk_bytes) in
                let last = l.first_chunk.(idx) + ((off + len - 1) / Layout.chunk_bytes) in
                match acc with
                | (f, l') :: rest when first <= l' + 1 -> (f, max last l') :: rest
                | _ -> (first, last) :: acc)
              acc (Iset.intervals iset))
          [] wset
      in
      (* Split each run at the chunks the list names already: each part
         left is one entry, and as many entries as still fit land. *)
      let fresh =
        List.concat_map
          (fun (f, last) ->
            let parts = ref [] and start = ref (-1) in
            for c = f to last + 1 do
              if c <= last && not (Hashtbl.mem l.named c) then begin
                if !start < 0 then start := c
              end
              else if !start >= 0 then begin
                parts := (!start, c - 1) :: !parts;
                start := -1
              end
            done;
            List.rev !parts)
          (List.rev runs)
      in
      let n = min (List.length fresh) (Layout.dirty_capacity - l.pos) in
      List.iteri
        (fun i (f, last) ->
          if i < n then
            for c = f to last do
              Hashtbl.replace l.named c ()
            done)
        fresh;
      let c =
        packets_of_range t ~off:(l.pos * Layout.dirty_entry_size) ~len:(n * Layout.dirty_entry_size)
      in
      l.pos <- l.pos + n;
      c

let class_bump tbl key c =
  let cur = Option.value ~default:cost_zero (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (cost_add cur c)

let record_unit_pred t key u =
  Hashtbl.replace t.units key u

let on_commit t args =
  match List.assoc_opt "txn" args with
  | None -> ()
  | Some id -> (
      match Hashtbl.find_opt t.txns id with
      | None ->
          (* A commit with no declarations still fences. *)
          if t.group <= 1 then
            record_unit_pred t ("t" ^ id)
              { u_undo = cost_zero; u_data = cost_zero; u_segmeta = cost_zero; u_fence = fence_cost t }
          else t.staged <- t.staged @ [ (id, fresh_txn ()) ]
      | Some x ->
          Hashtbl.remove t.txns id;
          if t.group <= 1 then begin
            record_unit_pred t ("t" ^ id)
              {
                u_undo = x.x_undo;
                u_data = data_cost t x;
                u_segmeta = segmeta_cost t x.x_wset;
                u_fence = fence_cost t;
              };
            maybe_quiesce t
          end
          else t.staged <- t.staged @ [ (id, x) ])

let on_abort t args =
  match List.assoc_opt "txn" args with
  | None -> ()
  | Some id ->
      Hashtbl.remove t.txns id;
      t.staged <- List.remove_assoc id t.staged;
      (* Any packets the aborted transaction already pushed will never
         be fenced; drop them from the per-unit ledger so they don't
         leak into a later unit with the same key. *)
      let stale =
        Hashtbl.fold (fun (k, n) _ acc -> if k = "t" ^ id then (k, n) :: acc else acc) t.measured []
      in
      List.iter (fun kn -> Hashtbl.remove t.measured kn) stale;
      maybe_quiesce t

(* The convoy's prediction, replicated from [Perseas.flush]: the
   batch's records sorted by local slot and packed to a dense remote
   chain (adjacent local records coalesce into one chunk), the merged
   per-segment data runs, the dirty-list append, and the fence —
   every chunk widened like the engine's plan_convoy. *)
let convoy_pred t =
  let batch = List.map snd t.staged in
  let recs =
    List.concat_map (fun x -> List.rev x.x_recs) batch
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let chunks = ref [] and cur = ref None and dst = ref 0 in
  List.iter
    (fun (src_slot, flen) ->
      let span = Layout.undo_slot_packed ~off:!dst ~payload_len:flen - !dst in
      (match !cur with
      | Some (d0, s0, len) when s0 + len = src_slot -> cur := Some (d0, s0, len + span)
      | Some c ->
          chunks := c :: !chunks;
          cur := Some (!dst, src_slot, span)
      | None -> cur := Some (!dst, src_slot, span));
      dst := !dst + span)
    recs;
  (match !cur with Some c -> chunks := c :: !chunks | None -> ());
  let u_undo =
    List.fold_left
      (fun acc (dst, src, len) ->
        cost_add acc
          (write_cost t ~widen:t.opt_memcpy ~window_len:t.undo_cap ~src_off:src ~dst_off:dst ~len))
      cost_zero (List.rev !chunks)
  in
  (* Batch data runs: the union of every staged write-set, glued under
     optimized_memcpy regardless of elision (the engine always indexes
     write-sets). *)
  let merged = Hashtbl.create 8 in
  List.iter
    (fun x ->
      List.iter
        (fun (idx, iset) ->
          let cur = Option.value ~default:Iset.empty (Hashtbl.find_opt merged idx) in
          Hashtbl.replace merged idx (Iset.union cur iset))
        x.x_wset)
    batch;
  let indices = Hashtbl.fold (fun idx _ acc -> idx :: acc) merged [] |> List.sort compare in
  let u_data =
    List.fold_left
      (fun acc idx ->
        let iset = Hashtbl.find merged idx in
        let iset = if t.opt_memcpy then Iset.glue iset ~align:64 else iset in
        let window_len = Option.value ~default:max_int (List.assoc_opt idx t.seg_sizes) in
        List.fold_left
          (fun acc (off, len) ->
            cost_add acc
              (write_cost t ~widen:t.opt_memcpy ~window_len ~src_off:off ~dst_off:off ~len))
          acc (Iset.intervals iset))
      cost_zero indices
  in
  let u_segmeta = segmeta_cost t (List.map (fun idx -> (idx, Hashtbl.find merged idx)) indices) in
  { u_undo; u_data; u_segmeta; u_fence = fence_cost t }

(* ------------------------------------------------------------------ *)
(* Piece accounting                                                    *)

let class_of_piece ~op ~tag =
  match op with
  | "remote_undo" -> Some "undo"
  | "commit_propagate" -> Some "data"
  | "commit_segmeta" -> Some "segmeta"
  | "commit_fence" -> Some "fence"
  | "flush_convoy" -> (
      match tag with ("undo" | "data" | "segmeta" | "fence") as c -> Some c | _ -> None)
  | _ -> None

let on_piece t (e : Trace.Event.t) =
  let args = e.Trace.Event.args in
  let num k = Option.value ~default:0 (Option.bind (List.assoc_opt k args) int_of_string_opt) in
  let c = { pkts64 = num "full64"; pkts16 = num "part16"; bytes = num "bytes" } in
  let op = Option.value ~default:"" (List.assoc_opt "op" args) in
  let tag = Option.value ~default:"" (List.assoc_opt "tag" args) in
  let node = Option.bind (List.assoc_opt "node" args) int_of_string_opt in
  let dir = Option.value ~default:"" (List.assoc_opt "dir" args) in
  let key =
    match List.assoc_opt "convoy" args with
    | Some k -> Some k
    | None -> (
        match (op, List.assoc_opt "txn" args) with
        | "remote_undo", Some id -> Some ("t" ^ id)
        | _ -> None)
  in
  match (key, node, dir) with
  | Some key, Some node, "write" ->
      (* A fresh convoy key finalises the batch prediction: the
         convoy's first piece proves the flush is under way, and the
         staged set is exactly the batch it carries. *)
      if String.length key > 0 && key.[0] = 'c' && not (Hashtbl.mem t.units key) then begin
        Hashtbl.replace t.units key (convoy_pred t);
        t.staged <- [];
        maybe_quiesce t
      end;
      (match class_of_piece ~op ~tag with
      | Some cls -> class_bump t.class_meas cls c
      | None -> ());
      let sofar = Option.value ~default:cost_zero (Hashtbl.find_opt t.measured (key, node)) in
      let total = cost_add sofar c in
      Hashtbl.replace t.measured (key, node) total;
      let is_fence = op = "commit_fence" || (op = "flush_convoy" && tag = "fence") in
      if is_fence then begin
        (* The fence is the unit's last piece on this node: settle. *)
        Hashtbl.remove t.measured (key, node);
        match Hashtbl.find_opt t.units key with
        | None ->
            let d =
              { d_unit = key; d_node = node; d_class = "unit"; d_predicted = cost_zero; d_measured = total }
            in
            t.alerts <- d :: t.alerts;
            t.on_drift d
        | Some u ->
            let predicted = unit_total u in
            t.nchecked <- t.nchecked + 1;
            t.predicted_total <- cost_add t.predicted_total predicted;
            class_bump t.class_pred "undo" u.u_undo;
            class_bump t.class_pred "data" u.u_data;
            class_bump t.class_pred "segmeta" u.u_segmeta;
            class_bump t.class_pred "fence" u.u_fence;
            if cost_packets total <> cost_packets predicted || total.bytes <> predicted.bytes then begin
              let d =
                { d_unit = key; d_node = node; d_class = "unit"; d_predicted = predicted; d_measured = total }
              in
              t.alerts <- d :: t.alerts;
              t.on_drift d
            end
      end
  | _ ->
      (* Reads, recovery traffic, checkpoint pushes, setup: outside the
         transaction cost model, reported so windows can assert they
         saw none. *)
      t.unattributed <- cost_add t.unattributed c

let on_span t (s : Trace.Span.t) =
  if s.Trace.Span.cat = "txn" then
    match s.Trace.Span.name with
    | "set_range" -> on_set_range t s.Trace.Span.args
    | "commit" -> on_commit t s.Trace.Span.args
    | "abort" -> on_abort t s.Trace.Span.args
    | _ -> ()

(* A checkpoint's finalize starts the list over; no commit lands between
   its instant and the restart. *)
let on_cut t (e : Trace.Event.t) =
  match t.tracking with
  | Some l when List.assoc_opt "phase" e.Trace.Event.args = Some "finalize" ->
      l.pos <- 0;
      Hashtbl.reset l.named
  | _ -> ()

let on_event t (e : Trace.Event.t) =
  match (e.Trace.Event.cat, e.Trace.Event.name) with
  | "sci", _ -> on_piece t e
  | "ckpt", "cut" -> on_cut t e
  | _ -> ()

let sink t = Trace.Sink.observer ~on_span:(on_span t) ~on_event:(on_event t)

(* Hand-feed hook, mirroring [Trace.Monitor] — the seeded-mutation
   tests replay corrupted streams through it. *)
let event = on_event

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let alerts t = List.rev t.alerts
let drift_count t = List.length t.alerts
let units_checked t = t.nchecked
let predicted_total t = t.predicted_total
let unattributed t = t.unattributed

let pending t =
  Hashtbl.length t.txns + List.length t.staged
  + (Hashtbl.fold (fun _ _ n -> n + 1) t.measured 0)

let classes t =
  List.map
    (fun cls ->
      ( cls,
        Option.value ~default:cost_zero (Hashtbl.find_opt t.class_pred cls),
        Option.value ~default:cost_zero (Hashtbl.find_opt t.class_meas cls) ))
    [ "undo"; "data"; "segmeta"; "fence" ]
