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

(* One contiguous copy of a plan: [len] bytes from [src] at [src_off]
   to [dst] at [dst_off], cut into packets at the remote address
   [off] (the destination offset of a write, the source offset of a
   read). *)
type piece = {
  src : Mem.Image.t;
  src_off : int;
  dst : Mem.Image.t;
  dst_off : int;
  off : int;
  len : int;
  tag : string; (* traffic class the caller declared, e.g. rpc vs bulk *)
}

(* One burst over its non-empty [pieces], in order, with its packet
   counts and latency in closed form. *)
type plan = {
  pieces : piece list;
  dir : Model.dir;
  hops : int;
  bonus : bool; (* the last packet earns the last-word bonus *)
  full64 : int;
  part16 : int;
  latency : Time.t;
  bytes : int;
}

(* Buffer sizes are powers of two ({!Params.validate}). *)
let align_down x a = x land lnot (a - 1)
let align_up x a = align_down (x + a - 1) a

(* Widen [dst_off, dst_off+len) to the enclosing 64-byte aligned region,
   clamped to the window; gives the sci_memcpy behaviour of section 4. *)
let widen (p : Params.t) ~window ~dst_off ~len =
  let lo = Int.max (Mem.Segment.base window) (align_down dst_off p.buffer_bytes) in
  let hi = Int.min (Mem.Segment.base window + Mem.Segment.len window) (align_up (dst_off + len) p.buffer_bytes) in
  if lo <= dst_off && hi >= dst_off + len then (lo, hi - lo) else (dst_off, len)

(* A write copy, packetised in destination (remote physical) address
   space and widened when a [window] allows it. *)
let write_piece (p : Params.t) ~tag ~window ~src ~src_off ~dst ~dst_off ~len =
  if len < 0 then invalid_arg "Nic: negative length";
  let off, len =
    match window with
    | Some window
      when len > Params.memcpy_threshold p && (src_off - dst_off) land (p.buffer_bytes - 1) = 0 ->
        widen p ~window ~dst_off ~len
    | _ -> (dst_off, len)
  in
  { src; src_off = src_off + (off - dst_off); dst; dst_off = off; off; len; tag }

(* Packetisation is per piece, costing per burst: only the first packet
   pays the base (+ hop) latency, Full64 streaming carries across piece
   boundaries (the card's FIFO never drains between back-to-back posted
   writes), and the last-word bonus depends on the final piece alone. *)
let burst (t : t) ~hops dir pieces =
  let p = t.params in
  let rec sum full64 part16 bytes = function
    | [] -> (full64, part16, bytes)
    | pc :: rest ->
        let f, q = Packet.counts p ~off:pc.off ~len:pc.len in
        sum (full64 + f) (part16 + q) (bytes + pc.len) rest
  in
  let full64, part16, bytes = sum 0 0 0 pieces in
  let rec last_piece = function [ pc ] -> Some pc | _ :: rest -> last_piece rest | [] -> None in
  let last, bonus =
    match last_piece pieces with
    | None -> (Packet.Part16, false)
    | Some pc ->
        ( Packet.last p ~off:pc.off ~len:pc.len,
          dir = Model.Write && Packet.ends_on_last_word p ~off:pc.off ~len:pc.len )
  in
  let latency = Model.burst p ~hops dir ~full64 ~part16 ~last ~bonus in
  { pieces; dir; hops; bonus; full64; part16; latency; bytes }

let plan_write t ?(hops = 1) ?(tag = "data") ?window ~src ~src_off ~dst ~dst_off ~len () =
  let pc = write_piece t.params ~tag ~window ~src ~src_off ~dst ~dst_off ~len in
  burst t ~hops Model.Write (if len = 0 then [] else [ pc ])

type chunk = {
  ck_tag : string;
  ck_window : Mem.Segment.t option;
  ck_src : Mem.Image.t;
  ck_src_off : int;
  ck_dst : Mem.Image.t;
  ck_dst_off : int;
  ck_len : int;
}

let plan_convoy t ?(hops = 1) chunks =
  burst t ~hops Model.Write
    (List.filter_map
       (fun c ->
         let pc =
           write_piece t.params ~tag:c.ck_tag ~window:c.ck_window ~src:c.ck_src ~src_off:c.ck_src_off
             ~dst:c.ck_dst ~dst_off:c.ck_dst_off ~len:c.ck_len
         in
         if pc.len = 0 then None else Some pc)
       chunks)

let plan_read t ?(hops = 1) ?(tag = "data") ~src ~src_off ~dst ~dst_off ~len () =
  if len < 0 then invalid_arg "Nic: negative length";
  burst t ~hops Model.Read
    (if len = 0 then [] else [ { src; src_off; dst; dst_off; off = src_off; len; tag } ])

let plan_packets plan = plan.full64 + plan.part16
let plan_latency plan = plan.latency
let plan_bytes plan = plan.bytes

let count (t : t) dir ~full64 ~part16 ~streamed ~bytes =
  t.packets64 <- t.packets64 + full64;
  t.packets16 <- t.packets16 + part16;
  t.packets_streamed <- t.packets_streamed + streamed;
  match dir with
  | Model.Write -> t.bytes_written <- t.bytes_written + bytes
  | Read -> t.bytes_read <- t.bytes_read + bytes

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
let walk ~before ~clock (t : t) plan =
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
              let delta = addr - pc.off in
              Mem.Image.blit ~src:pc.src ~src_off:(pc.src_off + delta) ~dst:pc.dst
                ~dst_off:(pc.dst_off + delta) ~len;
              let sent = t.packets64 + t.packets16 - n0 in
              let full = match kind with Packet.Full64 -> 1 | Part16 -> 0 in
              let streamed = full = 1 && t.packets64 > f0 in
              Clock.advance clock
                (Model.charge p ~hops:plan.hops plan.dir ~first:(sent = 0)
                   ~bonus:(plan.bonus && sent = last) ~streamed kind);
              count t plan.dir ~full64:full ~part16:(1 - full) ~streamed:(Bool.to_int streamed)
                ~bytes:len;
              if Trace.Timeseries.enabled t.tel then Trace.Gauge.add (tag_gauge t pc.tag) len)))
    plan.pieces

let rec blit_pieces (t : t) = function
  | [] -> ()
  | pc :: rest ->
      Mem.Image.blit ~src:pc.src ~src_off:pc.src_off ~dst:pc.dst ~dst_off:pc.dst_off ~len:pc.len;
      if Trace.Timeseries.enabled t.tel then Trace.Gauge.add (tag_gauge t pc.tag) pc.len;
      blit_pieces t rest

(* The bulk path's observation: each piece in closed form, stamped where
   the walk lands its last packet — [start] plus the latency of the
   burst's packets up to it. *)
let note_pieces (t : t) ~start plan =
  let p = t.params in
  let rec go full64 part16 = function
    | [] -> ()
    | pc :: rest ->
        let f, q = Packet.counts p ~off:pc.off ~len:pc.len in
        let at =
          start
          + Model.burst p ~hops:plan.hops plan.dir ~full64:(full64 + f) ~part16:(part16 + q)
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
let settle (t : t) ~clock plan =
  let start = Clock.now clock in
  Clock.advance clock plan.latency;
  count t plan.dir ~full64:plan.full64 ~part16:plan.part16 ~streamed:(Int.max 0 (plan.full64 - 1))
    ~bytes:plan.bytes;
  if Trace.Sink.enabled t.sink then note_pieces t ~start plan

let note_burst (t : t) plan = if plan_packets plan > 0 then t.bursts <- t.bursts + 1

let run ?before ?(clock : Clock.t option) (t : t) plan =
  let clock = Option.value clock ~default:t.clock in
  note_burst t plan;
  match before with
  | Some before -> walk ~before ~clock t plan
  | None ->
      blit_pieces t plan.pieces;
      settle t ~clock plan

(* Without a hook the copies go back to back, ahead of the accounting:
   consecutive copies that miss the host's caches then overlap in its
   memory system instead of waiting on each other. *)
let run_all ?before (t : t) plans =
  if Option.is_some before then
    List.iter (fun (clock, plan) -> run ?before ~clock t plan) plans
  else begin
    List.iter (fun (_, plan) -> blit_pieces t plan.pieces) plans;
    List.iter
      (fun (clock, plan) ->
        note_burst t plan;
        settle t ~clock plan)
      plans
  end

let write t ?hops ?tag ?window ~src ~src_off ~dst ~dst_off ~len () =
  run t (plan_write t ?hops ?tag ?window ~src ~src_off ~dst ~dst_off ~len ())

let read t ?hops ?tag ~src ~src_off ~dst ~dst_off ~len () =
  run t (plan_read t ?hops ?tag ~src ~src_off ~dst ~dst_off ~len ())

let scratch = Mem.Image.create ~size:8

let write_u64 t ?hops ?tag ~dst ~dst_off v =
  Mem.Image.write_u64 scratch 0 v;
  write t ?hops ?tag ~src:scratch ~src_off:0 ~dst ~dst_off ~len:8 ()

let read_u64 t ?hops ?tag ~src ~src_off () =
  read t ?hops ?tag ~src ~src_off ~dst:scratch ~dst_off:0 ~len:8 ();
  Mem.Image.read_u64 scratch 0
