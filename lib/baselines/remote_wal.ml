open Sim
module Node = Cluster.Node
module Client = Netram.Client
module Remote_segment = Netram.Remote_segment
module Device = Disk.Device
module Layout = Perseas.Layout

type config = {
  log_capacity : int;
  write_buffer : int;
  drain_bytes_per_s : float;
  software_overhead_commit : Time.t;
}

let default_config =
  {
    log_capacity = 4 * 1024 * 1024;
    write_buffer = 256 * 1024;
    (* Log pages land on disk between database-file traffic, so the
       effective rate is seek-bound page writes, not the media rate. *)
    drain_bytes_per_s = 0.5e6;
    software_overhead_commit = Time.us 4.;
  }

let log_export_name = "rwal!log"
let meta_export_name = "rwal!meta"
let log_header_size = 64
let tail_offset = 16

type segment = {
  seg_name : string;
  index : int;
  size : int;
  local : Mem.Segment.t;
  file_off : int;
}

type undo_entry = { u_seg : segment; u_off : int; u_data : bytes }

type txn = { owner : t; mutable undo : undo_entry list; mutable open_ : bool }

and t = {
  config : config;
  client : Client.t;
  device : Device.t;
  log_remote : Remote_segment.t;
  meta_remote : Remote_segment.t;
  log_local : Mem.Segment.t; (* local log replica / staging *)
  mutable segs : segment list; (* newest first *)
  mutable db_tail : int;
  mutable epoch : int64;
  mutable log_tail : int; (* bytes of records, relative to header end *)
  mutable ready : bool;
  mutable active : txn option;
  (* Asynchronous-writer model: [level] bytes not yet on disk as of
     [level_at]. *)
  mutable level : float;
  mutable level_at : Time.t;
  mutable n_checkpoints : int;
  mutable stalled : Time.t;
}

let clock t = Cluster.clock (Client.cluster t.client)
let local_node t = Client.local_node t.client
let local_dram t = Node.dram (local_node t)
let params t = Sci.Nic.params (Cluster.nic (Client.cluster t.client))

let charge_local_copy t len = Clock.advance (clock t) (Sci.Model.local_copy (params t) len)

let alloc_local t size what =
  match Mem.Allocator.alloc (Node.allocator (local_node t)) ~align:64 size with
  | Some seg -> seg
  | None -> failwith (Printf.sprintf "Remote_wal: out of local memory for %s" what)

let max_segments = 64
let meta_bytes = Layout.meta_size ~max_segments

let create ?(config = default_config) ~client ~device () =
  if config.log_capacity < 4096 then invalid_arg "Remote_wal.create: log too small";
  if config.write_buffer <= 0 || config.drain_bytes_per_s <= 0. then
    invalid_arg "Remote_wal.create: bad writer parameters";
  let log_remote =
    Client.malloc client ~name:log_export_name ~size:(log_header_size + config.log_capacity)
  in
  let meta_remote = Client.malloc client ~name:meta_export_name ~size:meta_bytes in
  let t =
    {
      config;
      client;
      device;
      log_remote;
      meta_remote;
      log_local = Mem.Segment.v ~base:0 ~len:1;
      segs = [];
      db_tail = 0;
      epoch = 0L;
      log_tail = 0;
      ready = false;
      active = None;
      level = 0.;
      level_at = Time.zero;
      n_checkpoints = 0;
      stalled = Time.zero;
    }
  in
  let t = { t with log_local = alloc_local t (log_header_size + config.log_capacity) "log replica" } in
  t

let config t = t.config
let segment_by_name t name = List.find_opt (fun s -> s.seg_name = name) t.segs
let checkpoints t = t.n_checkpoints
let stall_time t = t.stalled

let checksum t seg = Mem.Image.checksum (local_dram t) ~off:(Mem.Segment.base seg.local) ~len:seg.size

let check_seg_range seg ~off ~len op =
  if off < 0 || len < 0 || off + len > seg.size then
    invalid_arg (Printf.sprintf "Remote_wal.%s: [%d,+%d) outside %S" op off len seg.seg_name)

let malloc t ~name ~size =
  if t.ready then failwith "Remote_wal.malloc: database already initialised";
  if size <= 0 then invalid_arg "Remote_wal.malloc: size must be positive";
  if List.length t.segs >= max_segments then failwith "Remote_wal.malloc: too many segments";
  if segment_by_name t name <> None then failwith (Printf.sprintf "Remote_wal.malloc: segment %S exists" name);
  ignore (Layout.db_export_name name);
  if t.db_tail + size > Device.capacity t.device then failwith "Remote_wal.malloc: database file full";
  let local = alloc_local t size (Printf.sprintf "segment %S" name) in
  let seg = { seg_name = name; index = List.length t.segs; size; local; file_off = t.db_tail } in
  t.db_tail <- t.db_tail + size;
  t.segs <- seg :: t.segs;
  seg

let write_segment_to_file t seg =
  let data = Mem.Image.read_bytes (local_dram t) ~off:(Mem.Segment.base seg.local) ~len:seg.size in
  Device.write t.device ~off:seg.file_off data

let push_meta t =
  let b = Bytes.make meta_bytes '\000' in
  Layout.write_meta_magic b;
  Layout.write_epoch b t.epoch;
  Layout.write_nsegs b (List.length t.segs);
  List.iter (fun s -> Layout.write_table_entry b ~index:s.index ~name:s.seg_name ~size:s.size) t.segs;
  let image = local_dram t in
  let staging = alloc_local t meta_bytes "meta staging" in
  Mem.Image.write_bytes image ~off:(Mem.Segment.base staging) b;
  Client.write t.client t.meta_remote ~seg_off:0 ~src_off:(Mem.Segment.base staging) ~len:meta_bytes;
  Mem.Allocator.free (Node.allocator (local_node t)) staging

(* The local log replica holds the header too; keep both copies of the
   header in sync with small writes. *)
let write_log_header t =
  let image = local_dram t in
  let base = Mem.Segment.base t.log_local in
  Mem.Image.write_u64 image base Layout.meta_magic;
  Mem.Image.write_u64 image (base + 8) t.epoch;
  Mem.Image.write_u64 image (base + tail_offset) (Int64.of_int t.log_tail);
  Client.write t.client t.log_remote ~seg_off:0 ~src_off:base ~len:24

let push_tail t =
  let image = local_dram t in
  let base = Mem.Segment.base t.log_local in
  Mem.Image.write_u64 image (base + tail_offset) (Int64.of_int t.log_tail);
  (* The commit point: a single 8-byte remote store. *)
  Client.write t.client t.log_remote ~seg_off:tail_offset ~src_off:(base + tail_offset) ~len:8

let init_done t =
  if t.ready then failwith "Remote_wal.init_done: already initialised";
  t.epoch <- 1L;
  List.iter (write_segment_to_file t) (List.rev t.segs);
  push_meta t;
  write_log_header t;
  t.level_at <- Clock.now (clock t);
  t.ready <- true

let begin_transaction t =
  if not t.ready then failwith "Remote_wal.begin_transaction: call init_done first";
  (match t.active with
  | Some _ -> failwith "Remote_wal.begin_transaction: transaction already open"
  | None -> ());
  let txn = { owner = t; undo = []; open_ = true } in
  t.active <- Some txn;
  txn

let check_open txn op = if not txn.open_ then failwith (Printf.sprintf "Remote_wal.%s: transaction closed" op)

let set_range txn seg ~off ~len =
  check_open txn "set_range";
  check_seg_range seg ~off ~len "set_range";
  if len = 0 then invalid_arg "Remote_wal.set_range: empty range";
  let t = txn.owner in
  let data = Mem.Image.read_bytes (local_dram t) ~off:(Mem.Segment.base seg.local + off) ~len in
  charge_local_copy t len;
  txn.undo <- { u_seg = seg; u_off = off; u_data = data } :: txn.undo

(* Drain the async writer up to the current instant, then account the
   new record bytes; if the buffer overflows, the commit stalls until
   the disk catches up — this is where [19] degrades under load. *)
let account_async_writer t bytes =
  let now = Clock.now (clock t) in
  let drained = t.config.drain_bytes_per_s *. Time.to_s (now - t.level_at) in
  t.level <- Float.max 0. (t.level -. drained) +. float_of_int bytes;
  t.level_at <- now;
  if t.level > float_of_int t.config.write_buffer then begin
    let excess = t.level -. float_of_int t.config.write_buffer in
    let stall = Time.s (excess /. t.config.drain_bytes_per_s) in
    Clock.advance (clock t) stall;
    t.stalled <- t.stalled + stall;
    t.level <- float_of_int t.config.write_buffer;
    t.level_at <- Clock.now (clock t)
  end

(* Log full: write every segment to the database file (synchronously,
   charged) and restart the log under a new epoch. *)
let checkpoint t =
  List.iter (write_segment_to_file t) (List.rev t.segs);
  t.epoch <- Int64.add t.epoch 1L;
  t.log_tail <- 0;
  write_log_header t;
  t.level <- 0.;
  t.level_at <- Clock.now (clock t);
  t.n_checkpoints <- t.n_checkpoints + 1

let commit txn =
  check_open txn "commit";
  let t = txn.owner in
  Clock.advance (clock t) t.config.software_overhead_commit;
  let image = local_dram t in
  let total_record_bytes = ref 0 in
  let append u =
    let len = Bytes.length u.u_data in
    (* Checkpoint before encoding: the record must carry the epoch it
       will live under. *)
    let record_len = Layout.undo_header_size + len in
    if t.log_tail + record_len > t.config.log_capacity then checkpoint t;
    if t.log_tail + record_len > t.config.log_capacity then failwith "Remote_wal.commit: record larger than log";
    let after = Mem.Image.read_bytes image ~off:(Mem.Segment.base u.u_seg.local + u.u_off) ~len in
    let record =
      Layout.encode_undo
        { Layout.epoch = t.epoch; seg_index = u.u_seg.index; off = u.u_off; len }
        ~payload:after
    in
    let slot = t.log_tail in
    let staging_off = Mem.Segment.base t.log_local + log_header_size + slot in
    Mem.Image.write_bytes image ~off:staging_off record;
    charge_local_copy t record_len;
    (* Mirror the record into the remote log replica. *)
    Client.write t.client t.log_remote ~seg_off:(log_header_size + slot) ~src_off:staging_off
      ~len:record_len;
    t.log_tail <- Layout.undo_slot ~off:slot ~payload_len:len;
    total_record_bytes := !total_record_bytes + record_len
  in
  List.iter append (List.rev txn.undo);
  push_tail t;
  account_async_writer t !total_record_bytes;
  txn.open_ <- false;
  t.active <- None

let abort txn =
  check_open txn "abort";
  let t = txn.owner in
  List.iter
    (fun u ->
      Mem.Image.write_bytes (local_dram t) ~off:(Mem.Segment.base u.u_seg.local + u.u_off) u.u_data;
      charge_local_copy t (Bytes.length u.u_data))
    txn.undo;
  txn.open_ <- false;
  t.active <- None

let covered txn seg ~off ~len =
  List.exists
    (fun u -> u.u_seg == seg && u.u_off <= off && off + len <= u.u_off + Bytes.length u.u_data)
    txn.undo

let write t seg ~off data =
  let len = Bytes.length data in
  check_seg_range seg ~off ~len "write";
  if t.ready then begin
    match t.active with
    | Some txn when covered txn seg ~off ~len -> ()
    | Some _ -> failwith (Printf.sprintf "Remote_wal.write: [%d,+%d) of %S not covered by set_range" off len seg.seg_name)
    | None -> failwith "Remote_wal.write: no open transaction"
  end;
  Mem.Image.write_bytes (local_dram t) ~off:(Mem.Segment.base seg.local + off) data;
  charge_local_copy t len

let read t seg ~off ~len =
  check_seg_range seg ~off ~len "read";
  Mem.Image.read_bytes (local_dram t) ~off:(Mem.Segment.base seg.local + off) ~len

let recover ?(config = default_config) ~cluster ~local ~server ~device () =
  let client = Client.create ~cluster ~local ~server in
  let connect name =
    match Client.connect client ~name with
    | Some h -> h
    | None -> failwith (Printf.sprintf "Remote_wal.recover: %s not found" name)
  in
  let meta_remote = connect meta_export_name in
  let log_remote = connect log_export_name in
  let remote_image = Node.dram (Netram.Server.node server) in
  let meta =
    Mem.Image.read_bytes remote_image ~off:(Remote_segment.base meta_remote) ~len:meta_bytes
  in
  if Layout.read_meta_magic meta <> Layout.meta_magic then
    failwith "Remote_wal.recover: no metadata on this server";
  let nic = Cluster.nic cluster in
  let p = Sci.Nic.params nic in
  let hops = max 1 (Cluster.hops cluster ~src:local ~dst:(Node.id (Netram.Server.node server))) in
  Clock.advance (Cluster.clock cluster) (Sci.Model.read_range p ~hops ~off:0 ~len:meta_bytes ());
  let nsegs = Layout.read_nsegs meta in
  let t =
    {
      config;
      client;
      device;
      log_remote;
      meta_remote;
      log_local = Mem.Segment.v ~base:0 ~len:1;
      segs = [];
      db_tail = 0;
      epoch = 0L;
      log_tail = 0;
      ready = false;
      active = None;
      level = 0.;
      level_at = Clock.now (Cluster.clock cluster);
      n_checkpoints = 0;
      stalled = Time.zero;
    }
  in
  let t = { t with log_local = alloc_local t (log_header_size + config.log_capacity) "log replica" } in
  (* Database file state as of the last checkpoint. *)
  for index = 0 to nsegs - 1 do
    let name, size = Layout.read_table_entry meta ~index in
    let seg = malloc t ~name ~size in
    let data = Device.read device ~off:seg.file_off ~len:size in
    Mem.Image.write_bytes (local_dram t) ~off:(Mem.Segment.base seg.local) data
  done;
  (* Replay the remote log replica up to the committed tail. *)
  let header =
    Mem.Image.read_bytes remote_image ~off:(Remote_segment.base log_remote) ~len:log_header_size
  in
  if Bytes.get_int64_le header 0 <> Layout.meta_magic then failwith "Remote_wal.recover: bad log header";
  let epoch = Bytes.get_int64_le header 8 in
  let tail = Int64.to_int (Bytes.get_int64_le header tail_offset) in
  if tail < 0 || tail > config.log_capacity then failwith "Remote_wal.recover: corrupt log tail";
  let log_bytes =
    Mem.Image.read_bytes remote_image
      ~off:(Remote_segment.base log_remote + log_header_size)
      ~len:tail
  in
  Clock.advance (Cluster.clock cluster)
    (Sci.Model.read_range p ~hops ~off:log_header_size ~len:(max tail 8) ());
  let by_index = Array.of_list (List.rev t.segs) in
  let rec replay off =
    match Layout.decode_undo_header log_bytes ~off with
    | Some h when h.Layout.epoch = epoch && Layout.verify_undo log_bytes ~off h ->
        if h.seg_index < Array.length by_index then begin
          let seg = by_index.(h.seg_index) in
          if h.off + h.len <= seg.size then
            Mem.Image.write_bytes (local_dram t)
              ~off:(Mem.Segment.base seg.local + h.off)
              (Bytes.sub log_bytes (off + Layout.undo_header_size) h.len)
        end;
        replay (Layout.undo_slot ~off ~payload_len:h.Layout.len)
    | _ -> ()
  in
  replay 0;
  t.epoch <- epoch;
  t.log_tail <- tail;
  let image = local_dram t in
  Mem.Image.write_bytes image ~off:(Mem.Segment.base t.log_local)
    (Bytes.cat header log_bytes);
  t.ready <- true;
  (* Checkpoint so the rebuilt state is on disk and the log restarts. *)
  checkpoint t;
  t

module Engine = struct
  type nonrec t = t
  type nonrec segment = segment
  type nonrec txn = txn

  let name = "RemoteWAL"
  let malloc = malloc
  let find_segment = segment_by_name
  let init_done = init_done
  let begin_transaction = begin_transaction
  let set_range txn seg ~off ~len = set_range txn seg ~off ~len
  let commit = commit
  let abort = abort
  let write = write
  let read = read
end
