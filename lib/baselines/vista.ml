open Sim
module Node = Cluster.Node
module Device = Disk.Device
module Layout = Perseas.Layout
module Iset = Perseas.Iset
module Imap = Map.Make (Int)

type config = {
  undo_capacity : int;
  max_segments : int;
  redundancy_elision : bool;
  software_overhead_commit : Time.t;
}

let default_config =
  {
    undo_capacity = (1024 * 1024) + (64 * 1024);
    max_segments = 64;
    redundancy_elision = true;
    software_overhead_commit = Time.us 0.3;
  }

let meta_region_size = 4096
let undo_off = meta_region_size

type segment = { seg_name : string; index : int; size : int; file_off : int }

type range = { r_seg : segment; r_off : int; r_len : int; slot : int }

type txn = {
  owner : t;
  mutable ranges : range list; (* logged undo fragments, newest first *)
  mutable wset : Iset.t Imap.t; (* coalesced declared ranges per segment *)
  mutable tail : int;
  mutable open_ : bool;
}

and t = {
  config : config;
  node : Node.t;
  device : Device.t;
  mutable segs : segment list; (* newest first *)
  mutable db_tail : int;
  mutable epoch : int64;
  mutable ready : bool;
  mutable active : txn option;
}

let db_base config = undo_off + config.undo_capacity

let create ?(config = default_config) ~node ~device () =
  (match Device.backend device with
  | Device.Rio _ -> ()
  | Device.Magnetic _ -> invalid_arg "Vista.create: Vista requires the Rio file cache");
  if db_base config >= Device.capacity device then invalid_arg "Vista.create: device too small";
  { config; node; device; segs = []; db_tail = db_base config; epoch = 0L; ready = false; active = None }

let device t = t.device
let epoch t = t.epoch
let segment_by_name t name = List.find_opt (fun s -> s.seg_name = name) t.segs
let clock t = Node.clock t.node

let checksum t seg =
  let data = Device.peek t.device ~off:seg.file_off ~len:seg.size in
  let h = ref 0xcbf29ce484222325L in
  Bytes.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    data;
  !h

let check_seg_range seg ~off ~len op =
  if off < 0 || len < 0 || off + len > seg.size then
    invalid_arg (Printf.sprintf "Vista.%s: [%d,+%d) outside %S" op off len seg.seg_name)

let malloc t ~name ~size =
  if t.ready then failwith "Vista.malloc: database already initialised";
  if size <= 0 then invalid_arg "Vista.malloc: size must be positive";
  if List.length t.segs >= t.config.max_segments then failwith "Vista.malloc: too many segments";
  if segment_by_name t name <> None then failwith (Printf.sprintf "Vista.malloc: segment %S exists" name);
  ignore (Layout.db_export_name name);
  if t.db_tail + size > Device.capacity t.device then failwith "Vista.malloc: device full";
  let seg = { seg_name = name; index = List.length t.segs; size; file_off = t.db_tail } in
  t.db_tail <- t.db_tail + size;
  t.segs <- seg :: t.segs;
  seg

let write_meta t =
  let b = Bytes.make meta_region_size '\000' in
  Layout.write_meta_magic b;
  Layout.write_epoch b t.epoch;
  Layout.write_nsegs b (List.length t.segs);
  List.iter (fun s -> Layout.write_table_entry b ~index:s.index ~name:s.seg_name ~size:s.size) t.segs;
  Device.write t.device ~off:0 b

let init_done t =
  if t.ready then failwith "Vista.init_done: already initialised";
  t.epoch <- 1L;
  write_meta t;
  t.ready <- true

let begin_transaction t =
  if not t.ready then failwith "Vista.begin_transaction: call init_done first";
  (match t.active with Some _ -> failwith "Vista.begin_transaction: transaction already open" | None -> ());
  let txn = { owner = t; ranges = []; wset = Imap.empty; tail = 0; open_ = true } in
  t.active <- Some txn;
  txn

let check_open txn op = if not txn.open_ then failwith (Printf.sprintf "Vista.%s: transaction closed" op)

let txn_iset txn seg =
  match Imap.find_opt seg.index txn.wset with Some s -> s | None -> Iset.empty

(* First-write-only logging (the design Vista pioneered and PERSEAS
   mirrors under [redundancy_elision]): a sub-range already declared
   this transaction keeps its original before-image, so only the
   uncovered fragments get undo records. *)
let set_range txn seg ~off ~len =
  check_open txn "set_range";
  check_seg_range seg ~off ~len "set_range";
  if len = 0 then invalid_arg "Vista.set_range: empty range";
  let t = txn.owner in
  let prior = txn_iset txn seg in
  let fragments =
    if t.config.redundancy_elision then Iset.uncovered prior ~off ~len else [ (off, len) ]
  in
  let rec fits tail = function
    | [] -> true
    | (_, flen) :: rest ->
        tail + Layout.undo_header_size + flen <= t.config.undo_capacity
        && fits (Layout.undo_slot ~off:tail ~payload_len:flen) rest
  in
  if not (fits txn.tail fragments) then failwith "Vista.set_range: undo log full";
  List.iter
    (fun (off, len) ->
      let payload = Device.peek t.device ~off:(seg.file_off + off) ~len in
      let record =
        Layout.encode_undo { Layout.epoch = t.epoch; seg_index = seg.index; off; len } ~payload
      in
      let slot = txn.tail in
      Device.write t.device ~off:(undo_off + slot) record;
      txn.ranges <- { r_seg = seg; r_off = off; r_len = len; slot } :: txn.ranges;
      txn.tail <- Layout.undo_slot ~off:slot ~payload_len:len)
    fragments;
  txn.wset <- Imap.add seg.index (Iset.add prior ~off ~len) txn.wset

let epoch_bytes e =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 e;
  b

(* Vista's commit is one protected store: bump the epoch, which
   invalidates every undo record of the transaction. *)
let commit txn =
  check_open txn "commit";
  let t = txn.owner in
  Clock.advance (clock t) t.config.software_overhead_commit;
  t.epoch <- Int64.add t.epoch 1L;
  Device.write t.device ~off:Layout.epoch_offset (epoch_bytes t.epoch);
  txn.open_ <- false;
  t.active <- None

let abort txn =
  check_open txn "abort";
  let t = txn.owner in
  List.iter
    (fun r ->
      let payload =
        Device.peek t.device ~off:(undo_off + r.slot + Layout.undo_header_size) ~len:r.r_len
      in
      Device.write t.device ~off:(r.r_seg.file_off + r.r_off) payload)
    txn.ranges;
  (* The undo records stay valid for the current epoch, which is safe:
     they now equal the database contents.  Bump the epoch anyway so
     recovery does no needless copying. *)
  t.epoch <- Int64.add t.epoch 1L;
  Device.write t.device ~off:Layout.epoch_offset (epoch_bytes t.epoch);
  txn.open_ <- false;
  t.active <- None

let covered txn seg ~off ~len = Iset.covers (txn_iset txn seg) ~off ~len

let write t seg ~off data =
  let len = Bytes.length data in
  check_seg_range seg ~off ~len "write";
  if t.ready then begin
    match t.active with
    | Some txn when covered txn seg ~off ~len -> ()
    | Some _ -> failwith (Printf.sprintf "Vista.write: [%d,+%d) of %S not covered by set_range" off len seg.seg_name)
    | None -> failwith "Vista.write: no open transaction"
  end;
  Device.write t.device ~off:(seg.file_off + off) data

let read t seg ~off ~len =
  check_seg_range seg ~off ~len "read";
  Device.peek t.device ~off:(seg.file_off + off) ~len

let recover ?(config = default_config) ~node ~device () =
  let meta = Device.peek device ~off:0 ~len:meta_region_size in
  if Layout.read_meta_magic meta <> Layout.meta_magic then
    failwith "Vista.recover: Rio cache did not survive the crash";
  let current_epoch = Layout.read_epoch meta in
  let nsegs = Layout.read_nsegs meta in
  if nsegs < 0 || nsegs > config.max_segments then failwith "Vista.recover: corrupt segment count";
  let t =
    { config; node; device; segs = []; db_tail = db_base config; epoch = current_epoch; ready = false; active = None }
  in
  for index = 0 to nsegs - 1 do
    let name, size = Layout.read_table_entry meta ~index in
    ignore (malloc t ~name ~size)
  done;
  (* Roll back the in-flight transaction from the undo region. *)
  let undo_bytes = Device.peek device ~off:undo_off ~len:config.undo_capacity in
  let by_index = Array.of_list (List.rev t.segs) in
  let rec walk acc off =
    match Layout.decode_undo_header undo_bytes ~off with
    | Some h when h.Layout.epoch = current_epoch && Layout.verify_undo undo_bytes ~off h ->
        walk ((off, h) :: acc) (Layout.undo_slot ~off ~payload_len:h.Layout.len)
    | _ -> acc (* newest first *)
  in
  List.iter
    (fun (off, (h : Layout.undo_header)) ->
      if h.seg_index < Array.length by_index then begin
        let seg = by_index.(h.seg_index) in
        if h.off + h.len <= seg.size then
          Device.write device
            ~off:(seg.file_off + h.off)
            (Bytes.sub undo_bytes (off + Layout.undo_header_size) h.len)
      end)
    (walk [] 0);
  t.epoch <- Int64.add current_epoch 1L;
  Device.write device ~off:Layout.epoch_offset (epoch_bytes t.epoch);
  t.ready <- true;
  t

module Engine = struct
  type nonrec t = t
  type nonrec segment = segment
  type nonrec txn = txn

  let name = "Vista"
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
