open Sim

type t = {
  params : Params.t;
  clock : Clock.t;
  mutable bursts : int;
  mutable packets64 : int;
  mutable packets16 : int;
  mutable packets_streamed : int;
  mutable bytes_written : int;
  mutable bytes_read : int;
  mutable sink : Trace.Sink.t;
      (* Pure observer: event emission never touches the clock or the
         packet stream, so sink on/off runs are byte-identical. *)
  mutable ctx : (string * string) list;
      (* Causal tags appended to every piece instant while set —
         PERSEAS wraps each plan run with the transaction / convoy /
         destination-node identity so per-node streams can be stitched
         back into cross-node timelines.  Trace metadata only: never
         read by the transfer machinery. *)
  mutable tel : Trace.Timeseries.t;
      (* Same contract as the sink: gauges observe the transfer
         machinery, never steer it. *)
  mutable g_rpc_ops : Trace.Gauge.t;
  tag_gauges : (string, Trace.Gauge.t) Hashtbl.t;
}

type counters = {
  bursts : int;
  packets64 : int;
  packets16 : int;
  bytes_written : int;
  bytes_read : int;
}

let create ?(params = Params.default) clock =
  (match Params.validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Nic.create: invalid params: " ^ msg));
  {
    params;
    clock;
    bursts = 0;
    packets64 = 0;
    packets16 = 0;
    packets_streamed = 0;
    bytes_written = 0;
    bytes_read = 0;
    sink = Trace.Sink.noop;
    ctx = [];
    tel = Trace.Timeseries.noop;
    g_rpc_ops = Trace.Timeseries.gauge Trace.Timeseries.noop "";
    tag_gauges = Hashtbl.create 8;
  }

let params (t : t) = t.params
let clock (t : t) = t.clock
let set_sink (t : t) sink = t.sink <- sink
let sink (t : t) = t.sink
let set_ctx (t : t) ctx = t.ctx <- ctx
let ctx (t : t) = t.ctx

let set_telemetry (t : t) tel =
  t.tel <- tel;
  t.g_rpc_ops <- Trace.Timeseries.gauge tel "netram.rpc_ops";
  Hashtbl.reset t.tag_gauges;
  (* Cumulative counters are mirrored into gauges lazily, at sample
     time, so the hot path pays nothing for them. *)
  Trace.Timeseries.on_sample tel (fun _at ->
      Trace.Timeseries.set tel "nic.bursts" t.bursts;
      Trace.Timeseries.set tel "nic.pkts" (t.packets64 + t.packets16);
      Trace.Timeseries.set tel "nic.pkts64" t.packets64;
      Trace.Timeseries.set tel "nic.pkts16" t.packets16;
      Trace.Timeseries.set tel "nic.streamed_pkts" t.packets_streamed;
      Trace.Timeseries.set tel "nic.bytes_written" t.bytes_written;
      Trace.Timeseries.set tel "nic.bytes_read" t.bytes_read;
      Trace.Timeseries.set tel "nic.bytes" (t.bytes_written + t.bytes_read))

let telemetry (t : t) = t.tel

let tag_gauge (t : t) tag =
  match Hashtbl.find_opt t.tag_gauges tag with
  | Some g -> g
  | None ->
      let g = Trace.Timeseries.gauge t.tel ("nic.bytes." ^ tag) in
      Hashtbl.add t.tag_gauges tag g;
      g

let note_rpc (t : t) = Trace.Gauge.add t.g_rpc_ops 1

let counters (t : t) : counters =
  {
    bursts = t.bursts;
    packets64 = t.packets64;
    packets16 = t.packets16;
    bytes_written = t.bytes_written;
    bytes_read = t.bytes_read;
  }

let reset_counters (t : t) =
  t.bursts <- 0;
  t.packets64 <- 0;
  t.packets16 <- 0;
  t.bytes_written <- 0;
  t.bytes_read <- 0

(* Where a plan lands: the remote image, the base and length of each
   window its pieces name, and the ring distance of the burst. *)
type dest = { image : Mem.Image.t; bases : int array; lens : int array; hops : int }

(* Buffer sizes are powers of two ({!Params.validate}). *)
let align_down x a = x land lnot (a - 1)
let align_up x a = align_down (x + a - 1) a

(* Pieces are packetised at their window offsets, which is where the
   packets fall at the destination only when every window base is
   buffer-aligned. *)
let dest (t : t) ~image ~bases ~lens ~hops =
  if hops < 1 then invalid_arg "Nic: hops must be >= 1";
  if Array.length lens <> Array.length bases then invalid_arg "Nic.dest: one length per window";
  Array.iter
    (fun b ->
      if b < 0 || align_down b t.params.buffer_bytes <> b then
        invalid_arg (Printf.sprintf "Nic.dest: window base %d is not buffer-aligned" b))
    bases;
  { image; bases; lens; hops }

(* The destination of a plan built with its remote image: one window at
   address 0 spanning the image, whose own bounds check every copy. *)
let origin = [| 0 |]
let whole = [| max_int |]

let absolute ~image ~hops =
  if hops < 1 then invalid_arg "Nic: hops must be >= 1";
  { image; bases = origin; lens = whole; hops }

(* The destination of a plan built without one. *)
let unbound = { image = Mem.Image.create ~size:8; bases = [||]; lens = [||]; hops = 0 }

(* One contiguous copy of a plan: [len] bytes between the local image
   [local] at [local_off] (a write's source, a read's destination) and
   offset [off] of remote window [win], where its packets are cut.  The
   window's base comes from the destination the plan runs on. *)
type piece = {
  local : Mem.Image.t;
  local_off : int;
  win : int;
  off : int;
  len : int;
  tag : string; (* traffic class the caller declared, e.g. rpc vs bulk *)
}

(* One burst over its non-empty [pieces], in order, with its packet
   counts in closed form, and the part of its latency they fix
   ([Model.burst_body]); the hop count of the destination it runs on
   adds the rest. *)
type plan = {
  pieces : piece list;
  dir : Model.dir;
  full64 : int;
  part16 : int;
  bonus : bool; (* the last packet earns the last-word bonus *)
  body : Time.t;
  bytes : int;
  params : Params.t;
  home : dest; (* where {!run} sends it: its destination, or [unbound] *)
}

(* A write copy to window offset [off], widened under [widen] to the
   enclosing 64-byte aligned region clamped to [\[lo, hi)]: the
   sci_memcpy behaviour of section 4.  Widening needs source and
   destination congruent modulo the buffer size. *)
let write_piece (p : Params.t) ~tag ~widen ~lo ~hi ~win ~src ~src_off ~off ~len =
  if len < 0 then invalid_arg "Nic: negative length";
  let b = p.buffer_bytes in
  let wlo = Int.max lo (align_down off b) and whi = Int.min hi (align_up (off + len) b) in
  if
    widen
    && len > Params.memcpy_threshold p
    && (src_off - off) land (b - 1) = 0
    && wlo <= off
    && whi >= off + len
  then { local = src; local_off = src_off + (wlo - off); win; off = wlo; len = whi - wlo; tag }
  else { local = src; local_off = src_off; win; off; len; tag }

(* A write to an absolute address, widened within [window] (a segment
   in destination coordinates) when one is given. *)
let window_piece p ~tag ~window ~src ~src_off ~dst_off ~len =
  match window with
  | None -> write_piece p ~tag ~widen:false ~lo:0 ~hi:0 ~win:0 ~src ~src_off ~off:dst_off ~len
  | Some w ->
      let lo = Mem.Segment.base w in
      write_piece p ~tag ~widen:true ~lo ~hi:(lo + Mem.Segment.len w) ~win:0 ~src ~src_off
        ~off:dst_off ~len

(* Packetisation is per piece, costing per burst: only the first packet
   pays the base (+ hop) latency, Full64 streaming carries across piece
   boundaries (the card's FIFO never drains between back-to-back posted
   writes), and the last-word bonus depends on the final piece alone. *)
let rec sum p ~home dir pieces full64 part16 bytes = function
  | [] -> { pieces; dir; full64; part16; bonus = false; body = Time.zero; bytes; params = p; home }
  | pc :: rest -> (
      let f, q = Packet.counts p ~off:pc.off ~len:pc.len in
      let full64 = full64 + f and part16 = part16 + q and bytes = bytes + pc.len in
      match rest with
      | _ :: _ -> sum p ~home dir pieces full64 part16 bytes rest
      | [] ->
          let bonus = dir = Model.Write && Packet.ends_on_last_word p ~off:pc.off ~len:pc.len in
          let last = Packet.last p ~off:pc.off ~len:pc.len in
          let body = Model.burst_body p dir ~full64 ~part16 ~last ~bonus in
          { pieces; dir; full64; part16; bonus; body; bytes; params = p; home })

let burst (t : t) ~home dir pieces = sum t.params ~home dir pieces 0 0 0 pieces

let nonempty pieces =
  if List.exists (fun pc -> pc.len = 0) pieces then List.filter (fun pc -> pc.len > 0) pieces
  else pieces

let plan_write (t : t) ?(hops = 1) ?(tag = "data") ?window ~src ~src_off ~dst ~dst_off ~len () =
  let pc = window_piece t.params ~tag ~window ~src ~src_off ~dst_off ~len in
  burst t ~home:(absolute ~image:dst ~hops) Model.Write (if len = 0 then [] else [ pc ])

type chunk = {
  ck_tag : string;
  ck_window : Mem.Segment.t option;
  ck_src : Mem.Image.t;
  ck_src_off : int;
  ck_dst : Mem.Image.t;
  ck_dst_off : int;
  ck_len : int;
}

let scratch = Mem.Image.create ~size:8

let plan_convoy (t : t) ?(hops = 1) chunks =
  let image = match chunks with c :: _ -> c.ck_dst | [] -> scratch in
  if List.exists (fun c -> c.ck_dst != image) chunks then
    invalid_arg "Nic.plan_convoy: chunks bound for more than one image";
  burst t ~home:(absolute ~image ~hops) Model.Write
    (nonempty
       (List.map
          (fun c ->
            window_piece t.params ~tag:c.ck_tag ~window:c.ck_window ~src:c.ck_src
              ~src_off:c.ck_src_off ~dst_off:c.ck_dst_off ~len:c.ck_len)
          chunks))

let plan_read t ?(hops = 1) ?(tag = "data") ~src ~src_off ~dst ~dst_off ~len () =
  if len < 0 then invalid_arg "Nic: negative length";
  burst t ~home:(absolute ~image:src ~hops) Model.Read
    (if len = 0 then [] else [ { local = dst; local_off = dst_off; win = 0; off = src_off; len; tag } ])

let piece (t : t) ~tag ~widen ~win ~win_len ~off ~src ~src_off ~len =
  if off < 0 || len < 0 || off + len > win_len then
    invalid_arg (Printf.sprintf "Nic.piece: [%d,+%d) outside a window of %d bytes" off len win_len);
  write_piece t.params ~tag ~widen ~lo:0 ~hi:win_len ~win ~src ~src_off ~off ~len

let plan_pieces t pieces = burst t ~home:unbound Model.Write (nonempty pieces)
let plan_packets plan = plan.full64 + plan.part16
let plan_bytes plan = plan.bytes

(* The plan's latency at [dest]. *)
let latency dest plan =
  Model.burst_at plan.params ~hops:dest.hops plan.dir ~packets:(plan_packets plan) plan.body

let home plan =
  if plan.home == unbound then invalid_arg "Nic: the plan was built without a destination";
  plan.home

let plan_latency plan = latency (home plan) plan

let count (t : t) dir ~full64 ~part16 ~streamed ~bytes =
  t.packets64 <- t.packets64 + full64;
  t.packets16 <- t.packets16 + part16;
  t.packets_streamed <- t.packets_streamed + streamed;
  match dir with
  | Model.Write -> t.bytes_written <- t.bytes_written + bytes
  | Read -> t.bytes_read <- t.bytes_read + bytes

(* Copy [len] bytes of piece [pc], [delta] bytes in, at [dest]. *)
let copy dir dest pc ~delta ~len =
  let remote = dest.bases.(pc.win) + pc.off + delta in
  match dir with
  | Model.Write ->
      Mem.Image.blit ~src:pc.local ~src_off:(pc.local_off + delta) ~dst:dest.image ~dst_off:remote ~len
  | Read -> Mem.Image.blit ~src:dest.image ~src_off:remote ~dst:pc.local ~dst_off:(pc.local_off + delta) ~len

(* One instant per applied piece, stamped when its last packet landed:
   the packets and bytes of it that landed, its traffic class and the
   caller's context tags. *)
let note_piece (t : t) dir pc ~at ~full64 ~part16 ~streamed ~bytes =
  Trace.Sink.instant t.sink ~cat:"sci" ~name:"piece" ~at
    ~args:
      ([
         ("tag", pc.tag);
         ("full64", string_of_int full64);
         ("part16", string_of_int part16);
         ("streamed", string_of_int streamed);
         ("bytes", string_of_int bytes);
         ("dir", match dir with Model.Write -> "write" | Read -> "read");
       ]
      @ t.ctx)

(* Packet by packet, for the crash hook: [before] runs ahead of each
   packet and may raise to cut the plan there.  What the plan, and each
   piece, has sent so far is read off the counters, so a cut piece is
   observed as the packets of it that landed. *)
let walk ~before ~clock (t : t) dest plan =
  let p = t.params in
  let last = plan_packets plan - 1 and f0 = t.packets64 and n0 = t.packets64 + t.packets16 in
  List.iter
    (fun pc ->
      let p64 = t.packets64 and p16 = t.packets16 and ps = t.packets_streamed in
      let pb = t.bytes_written + t.bytes_read in
      let observe () =
        let full64 = t.packets64 - p64 and part16 = t.packets16 - p16 in
        if full64 + part16 > 0 && Trace.Sink.enabled t.sink then
          note_piece t plan.dir pc ~at:(Clock.now clock) ~full64 ~part16
            ~streamed:(t.packets_streamed - ps) ~bytes:(t.bytes_written + t.bytes_read - pb)
      in
      Fun.protect ~finally:observe (fun () ->
          Packet.iter p ~off:pc.off ~len:pc.len (fun addr len kind ->
              before ();
              copy plan.dir dest pc ~delta:(addr - pc.off) ~len;
              let sent = t.packets64 + t.packets16 - n0 in
              let full = match kind with Packet.Full64 -> 1 | Part16 -> 0 in
              let streamed = full = 1 && t.packets64 > f0 in
              Clock.advance clock
                (Model.charge p ~hops:dest.hops plan.dir ~first:(sent = 0)
                   ~bonus:(plan.bonus && sent = last) ~streamed kind);
              count t plan.dir ~full64:full ~part16:(1 - full) ~streamed:(Bool.to_int streamed)
                ~bytes:len;
              if Trace.Timeseries.enabled t.tel then Trace.Gauge.add (tag_gauge t pc.tag) len)))
    plan.pieces

(* Each piece whole: [copy] at delta 0, written out because this loop
   sits between the bulk path's cache-missing copies (see [run_all]). *)
let rec blit_pieces (t : t) dir dest = function
  | [] -> ()
  | pc :: rest ->
      let remote = dest.bases.(pc.win) + pc.off in
      (match dir with
      | Model.Write ->
          Mem.Image.blit ~src:pc.local ~src_off:pc.local_off ~dst:dest.image ~dst_off:remote ~len:pc.len
      | Read -> Mem.Image.blit ~src:dest.image ~src_off:remote ~dst:pc.local ~dst_off:pc.local_off ~len:pc.len);
      if Trace.Timeseries.enabled t.tel then Trace.Gauge.add (tag_gauge t pc.tag) pc.len;
      blit_pieces t dir dest rest

(* The bulk path's observation: each piece in closed form, stamped where
   the walk lands its last packet — [start] plus the latency of the
   burst's packets up to it. *)
let note_pieces (t : t) ~start dest plan =
  let p = t.params in
  let rec go full64 part16 = function
    | [] -> ()
    | pc :: rest ->
        let f, q = Packet.counts p ~off:pc.off ~len:pc.len in
        let at =
          start
          + Model.burst p ~hops:dest.hops plan.dir ~full64:(full64 + f) ~part16:(part16 + q)
              ~last:(Packet.last p ~off:pc.off ~len:pc.len)
              ~bonus:(plan.bonus && rest = [])
        in
        note_piece t plan.dir pc ~at ~full64:f ~part16:q
          ~streamed:(if full64 = 0 then Int.max 0 (f - 1) else f)
          ~bytes:pc.len;
        go (full64 + f) (part16 + q) rest
  in
  go 0 0 plan.pieces

(* The bulk path's accounting: one latency charge, every packet counted. *)
let settle (t : t) ~clock dest plan =
  let latency = latency dest plan in
  Clock.advance clock latency;
  count t plan.dir ~full64:plan.full64 ~part16:plan.part16 ~streamed:(Int.max 0 (plan.full64 - 1))
    ~bytes:plan.bytes;
  if Trace.Sink.enabled t.sink then note_pieces t ~start:(Clock.now clock - latency) dest plan

let note_burst (t : t) plan = if plan_packets plan > 0 then t.bursts <- t.bursts + 1

(* Every piece must lie inside its window at [dest], which is checked
   before anything moves. *)
let rec fits dest = function
  | [] -> ()
  | pc :: rest ->
      if pc.off + pc.len > dest.lens.(pc.win) then
        invalid_arg
          (Printf.sprintf "Nic.run_to: [%d,+%d) outside window %d of %d bytes" pc.off pc.len pc.win
             dest.lens.(pc.win));
      fits dest rest

let run_to ?before ?(clock : Clock.t option) (t : t) dest plan =
  let clock = Option.value clock ~default:t.clock in
  fits dest plan.pieces;
  note_burst t plan;
  match before with
  | Some before -> walk ~before ~clock t dest plan
  | None ->
      blit_pieces t plan.dir dest plan.pieces;
      settle t ~clock dest plan

let run ?before ?clock t plan = run_to ?before ?clock t (home plan) plan

(* Without a hook the copies go back to back, ahead of the accounting:
   consecutive copies that miss the host's caches then overlap in its
   memory system instead of waiting on each other, the more so the
   fewer instructions lie between them — so no per-plan check sits in
   that loop.  A plan built without a destination is refused there all
   the same: [unbound] has no window to look a piece's base up in, and
   no hop count to price an empty plan at. *)
let run_all ?before (t : t) plans =
  if Option.is_some before then List.iter (fun (clock, plan) -> run ?before ~clock t plan) plans
  else begin
    List.iter (fun (_, plan) -> blit_pieces t plan.dir plan.home plan.pieces) plans;
    List.iter
      (fun (clock, plan) ->
        note_burst t plan;
        settle t ~clock plan.home plan)
      plans
  end

let write t ?hops ?tag ?window ~src ~src_off ~dst ~dst_off ~len () =
  run t (plan_write t ?hops ?tag ?window ~src ~src_off ~dst ~dst_off ~len ())

let read t ?hops ?tag ~src ~src_off ~dst ~dst_off ~len () =
  run t (plan_read t ?hops ?tag ~src ~src_off ~dst ~dst_off ~len ())

let write_u64 t ?hops ?tag ~dst ~dst_off v =
  Mem.Image.write_u64 scratch 0 v;
  write t ?hops ?tag ~src:scratch ~src_off:0 ~dst ~dst_off ~len:8 ()

let read_u64 t ?hops ?tag ~src ~src_off () =
  read t ?hops ?tag ~src ~src_off ~dst:scratch ~dst_off:0 ~len:8 ();
  Mem.Image.read_u64 scratch 0
