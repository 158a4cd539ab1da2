open Sim
module Node = Cluster.Node
module Device = Disk.Device
module Log = Disk.Log
module Layout = Perseas.Layout

type config = {
  log_size : int;
  group_commit : int;
  software_overhead_commit : Time.t;
  software_overhead_set_range : Time.t;
  metadata_force : bool;
  truncate_threshold : float;
}

let default_config =
  {
    log_size = 4 * 1024 * 1024;
    group_commit = 1;
    software_overhead_commit = Time.us 70.;
    software_overhead_set_range = Time.us 5.;
    metadata_force = true;
    truncate_threshold = 0.5;
  }

let max_segments = 64
let meta_region_size = 4096
let meta_region_off = 0
let log_off = meta_region_size

type segment = {
  seg_name : string;
  index : int;
  size : int;
  local : Mem.Segment.t;  (** placement in node DRAM *)
  file_off : int;  (** placement in the database file region *)
}

type undo_entry = { u_seg : segment; u_off : int; u_data : bytes }

type txn = { owner : t; mutable undo : undo_entry list; mutable open_ : bool }

and t = {
  config : config;
  node : Node.t;
  device : Device.t;
  log : Log.t;
  mutable segs : segment list; (* newest first *)
  mutable db_tail : int; (* next free offset in the db file region *)
  mutable ready : bool;
  mutable active : txn option;
  mutable pending_commits : int;
  mutable dirty : segment list;
  mutable n_forces : int;
  mutable n_truncations : int;
}

let db_base config = log_off + config.log_size

let create ?(config = default_config) ~node ~device () =
  if config.group_commit < 1 then invalid_arg "Rvm.create: group_commit must be >= 1";
  if db_base config >= Device.capacity device then invalid_arg "Rvm.create: device too small";
  let log = Log.create device ~base:log_off ~size:config.log_size in
  {
    config;
    node;
    device;
    log;
    segs = [];
    db_tail = db_base config;
    ready = false;
    active = None;
    pending_commits = 0;
    dirty = [];
    n_forces = 0;
    n_truncations = 0;
  }

let device t = t.device
let config t = t.config
let segment_by_name t name = List.find_opt (fun s -> s.seg_name = name) t.segs
let forces t = t.n_forces
let truncations t = t.n_truncations

let clock t = Node.clock t.node
let dram t = Node.dram t.node

let charge_local_copy t len = Clock.advance (clock t) (Sci.Model.local_copy Sci.Params.default len)

let checksum t seg = Mem.Image.checksum (dram t) ~off:(Mem.Segment.base seg.local) ~len:seg.size

let check_seg_range seg ~off ~len op =
  if off < 0 || len < 0 || off + len > seg.size then
    invalid_arg (Printf.sprintf "Rvm.%s: [%d,+%d) outside %S" op off len seg.seg_name)

let malloc t ~name ~size =
  if t.ready then failwith "Rvm.malloc: database already initialised";
  if size <= 0 then invalid_arg "Rvm.malloc: size must be positive";
  if List.length t.segs >= max_segments then failwith "Rvm.malloc: too many segments";
  if segment_by_name t name <> None then failwith (Printf.sprintf "Rvm.malloc: segment %S exists" name);
  ignore (Layout.db_export_name name) (* validate the name rules *);
  if t.db_tail + size > Device.capacity t.device then failwith "Rvm.malloc: database file region full";
  let local =
    match Mem.Allocator.alloc (Node.allocator t.node) ~align:64 size with
    | Some seg -> seg
    | None -> failwith "Rvm.malloc: out of node memory"
  in
  let seg = { seg_name = name; index = List.length t.segs; size; local; file_off = t.db_tail } in
  t.db_tail <- t.db_tail + size;
  t.segs <- seg :: t.segs;
  seg

let write_meta t =
  let b = Bytes.make meta_region_size '\000' in
  Layout.write_meta_magic b;
  Layout.write_nsegs b (List.length t.segs);
  List.iter (fun s -> Layout.write_table_entry b ~index:s.index ~name:s.seg_name ~size:s.size) t.segs;
  Device.write t.device ~off:meta_region_off b

let write_segment_to_file t seg =
  let data = Mem.Image.read_bytes (dram t) ~off:(Mem.Segment.base seg.local) ~len:seg.size in
  Device.write t.device ~off:seg.file_off data

let init_done t =
  if t.ready then failwith "Rvm.init_done: already initialised";
  write_meta t;
  List.iter (write_segment_to_file t) (List.rev t.segs);
  t.ready <- true

let begin_transaction t =
  if not t.ready then failwith "Rvm.begin_transaction: call init_done first";
  (match t.active with Some _ -> failwith "Rvm.begin_transaction: transaction already open" | None -> ());
  let txn = { owner = t; undo = []; open_ = true } in
  t.active <- Some txn;
  txn

let check_open txn op = if not txn.open_ then failwith (Printf.sprintf "Rvm.%s: transaction closed" op)

let set_range txn seg ~off ~len =
  check_open txn "set_range";
  check_seg_range seg ~off ~len "set_range";
  if len = 0 then invalid_arg "Rvm.set_range: empty range";
  let t = txn.owner in
  Clock.advance (clock t) t.config.software_overhead_set_range;
  let data = Mem.Image.read_bytes (dram t) ~off:(Mem.Segment.base seg.local + off) ~len in
  charge_local_copy t len;
  txn.undo <- { u_seg = seg; u_off = off; u_data = data } :: txn.undo

(* Redo record payload: segment index, offset, length, after-image. *)
let encode_redo seg ~off ~len ~data =
  let b = Bytes.create (12 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int seg.index);
  Bytes.set_int32_le b 4 (Int32.of_int off);
  Bytes.set_int32_le b 8 (Int32.of_int len);
  Bytes.blit data 0 b 12 len;
  b

let decode_redo payload =
  if Bytes.length payload < 12 then failwith "Rvm: corrupt redo record";
  let seg_index = Int32.to_int (Bytes.get_int32_le payload 0) in
  let off = Int32.to_int (Bytes.get_int32_le payload 4) in
  let len = Int32.to_int (Bytes.get_int32_le payload 8) in
  if len <> Bytes.length payload - 12 then failwith "Rvm: corrupt redo record";
  (seg_index, off, Bytes.sub payload 12 len)

let mark_dirty t seg = if not (List.memq seg t.dirty) then t.dirty <- seg :: t.dirty

let truncate t =
  List.iter (write_segment_to_file t) (List.rev t.dirty);
  t.dirty <- [];
  Log.truncate t.log;
  t.n_truncations <- t.n_truncations + 1

let force t =
  Log.force t.log;
  if t.config.metadata_force then begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int t.n_forces);
    Device.write t.device ~off:(meta_region_off + 56) b
  end;
  t.n_forces <- t.n_forces + 1;
  t.pending_commits <- 0;
  if float_of_int (Log.used_bytes t.log) > t.config.truncate_threshold *. float_of_int t.config.log_size
  then truncate t

let commit txn =
  check_open txn "commit";
  let t = txn.owner in
  Clock.advance (clock t) t.config.software_overhead_commit;
  (* Append one redo record per declared range, after-images included;
     the synchronous force is the WAL protocol's step 2 (Figure 2). *)
  List.iter
    (fun u ->
      let len = Bytes.length u.u_data in
      let data = Mem.Image.read_bytes (dram t) ~off:(Mem.Segment.base u.u_seg.local + u.u_off) ~len in
      charge_local_copy t len;
      ignore (Log.append t.log (encode_redo u.u_seg ~off:u.u_off ~len ~data));
      mark_dirty t u.u_seg)
    (List.rev txn.undo);
  t.pending_commits <- t.pending_commits + 1;
  if t.pending_commits >= t.config.group_commit then force t;
  txn.open_ <- false;
  t.active <- None

let abort txn =
  check_open txn "abort";
  let t = txn.owner in
  List.iter
    (fun u ->
      Mem.Image.write_bytes (dram t) ~off:(Mem.Segment.base u.u_seg.local + u.u_off) u.u_data;
      charge_local_copy t (Bytes.length u.u_data))
    txn.undo;
  txn.open_ <- false;
  t.active <- None

let flush t = if t.pending_commits > 0 then force t

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
    | Some _ -> failwith (Printf.sprintf "Rvm.write: [%d,+%d) of %S not covered by set_range" off len seg.seg_name)
    | None -> failwith "Rvm.write: no open transaction"
  end;
  Mem.Image.write_bytes (dram t) ~off:(Mem.Segment.base seg.local + off) data;
  charge_local_copy t len

let read t seg ~off ~len =
  check_seg_range seg ~off ~len "read";
  Mem.Image.read_bytes (dram t) ~off:(Mem.Segment.base seg.local + off) ~len

let recover ?(config = default_config) ~node ~device () =
  let meta = Device.read device ~off:meta_region_off ~len:meta_region_size in
  if Layout.read_meta_magic meta <> Layout.meta_magic then
    failwith "Rvm.recover: no database on this device (did stable storage survive the crash?)";
  let nsegs = Layout.read_nsegs meta in
  let log = Log.attach device ~base:log_off ~size:config.log_size in
  let t =
    {
      config;
      node;
      device;
      log;
      segs = [];
      db_tail = db_base config;
      ready = false;
      active = None;
      pending_commits = 0;
      dirty = [];
      n_forces = 0;
      n_truncations = 0;
    }
  in
  for index = 0 to nsegs - 1 do
    let name, size = Layout.read_table_entry meta ~index in
    let seg = malloc t ~name ~size in
    let data = Device.read device ~off:seg.file_off ~len:size in
    Mem.Image.write_bytes (dram t) ~off:(Mem.Segment.base seg.local) data
  done;
  let by_index = Array.of_list (List.rev t.segs) in
  List.iter
    (fun (_, payload) ->
      let seg_index, off, data = decode_redo payload in
      if seg_index < 0 || seg_index >= Array.length by_index then failwith "Rvm.recover: bad redo record";
      let seg = by_index.(seg_index) in
      check_seg_range seg ~off ~len:(Bytes.length data) "recover";
      Mem.Image.write_bytes (dram t) ~off:(Mem.Segment.base seg.local + off) data)
    (Log.replay log);
  t.ready <- true;
  (* Checkpoint: fold the replayed log into the database file. *)
  t.dirty <- t.segs;
  truncate t;
  t

module Engine = struct
  type nonrec t = t
  type nonrec segment = segment
  type nonrec txn = txn

  let name = "RVM"
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

let name_for device =
  match Device.backend device with Device.Magnetic _ -> "RVM" | Device.Rio _ -> "RVM-Rio"
