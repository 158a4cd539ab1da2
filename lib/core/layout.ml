let max_name_length = 32
let default_namespace = "perseas"

let valid_namespace ns =
  ns <> "" && String.length ns <= max_name_length && not (String.contains ns '!')

let check_namespace ns =
  if not (valid_namespace ns) then invalid_arg (Printf.sprintf "Layout: invalid namespace %S" ns)

let meta_name ~ns =
  check_namespace ns;
  ns ^ "!meta"

let undo_name ~ns =
  check_namespace ns;
  ns ^ "!undo"

let meta_segment_name = meta_name ~ns:default_namespace
let undo_segment_name = undo_name ~ns:default_namespace

let db_export_name ?(ns = default_namespace) name =
  check_namespace ns;
  let n = String.length name in
  if n = 0 then invalid_arg "Layout.db_export_name: empty name";
  if n > max_name_length then invalid_arg "Layout.db_export_name: name too long";
  if String.contains name '!' then invalid_arg "Layout.db_export_name: '!' is reserved";
  ns ^ "!db!" ^ name

let ckpt_dir_name ~ns =
  check_namespace ns;
  ns ^ "!ckpt!dir"

let ckpt_slot_name ~ns ~slot =
  check_namespace ns;
  if slot < 0 || slot > 1 then invalid_arg "Layout.ckpt_slot_name: slot must be 0 or 1";
  ns ^ "!ckpt!" ^ string_of_int slot

let ckpt_dir_size = 64

let meta_magic = 0x5045525345415331L (* "PERSEAS1" *)
let meta_header_size = 24
let meta_table_entry_size = max_name_length + 16
let meta_size ~max_segments = 64 + (max_segments * meta_table_entry_size)

let write_meta_magic b = Bytes.set_int64_le b 0 meta_magic
let read_meta_magic b = Bytes.get_int64_le b 0
let epoch_offset = 8
let write_epoch b e = Bytes.set_int64_le b epoch_offset e
let read_epoch b = Bytes.get_int64_le b epoch_offset
let write_nsegs b n = Bytes.set_int64_le b 16 (Int64.of_int n)
let read_nsegs b = Int64.to_int (Bytes.get_int64_le b 16)

(* One word of the 24..63 reserved header region: the base cut of the
   mirror's dirty-chunk list, or zero while no list is kept (no
   checkpoint target, or none published yet). *)
let ckpt_base_offset = 24
let write_ckpt_base b cut = Bytes.set_int64_le b ckpt_base_offset cut
let read_ckpt_base b = Bytes.get_int64_le b ckpt_base_offset

let table_off index = 64 + (index * meta_table_entry_size)

(* The entry's last 8 bytes are reserved (zero). *)
let write_table_entry b ~index ~name ~size =
  let off = table_off index in
  Bytes.fill b off meta_table_entry_size '\000';
  Bytes.blit_string name 0 b off (String.length name);
  Bytes.set_int64_le b (off + max_name_length) (Int64.of_int size)

let read_table_entry b ~index =
  let off = table_off index in
  let raw = Bytes.sub_string b off max_name_length in
  let name = match String.index_opt raw '\000' with Some i -> String.sub raw 0 i | None -> raw in
  let size = Int64.to_int (Bytes.get_int64_le b (off + max_name_length)) in
  if name = "" || size <= 0 then failwith "Layout.read_table_entry: corrupt entry";
  (name, size)

let dirty_list_name ~ns =
  check_namespace ns;
  ns ^ "!dirty"

let chunk_bytes = 64
let chunk_count ~size = (size + chunk_bytes - 1) / chunk_bytes

let chunk_bases sizes =
  let next = ref 0 in
  let bases =
    List.map
      (fun size ->
        let b = !next in
        next := b + chunk_count ~size + 1;
        b)
      sizes
  in
  (bases, !next)

let dirty_entry_size = 16
let dirty_capacity = 4096

let dirty_entry ~epoch ~first ~count =
  if first < 0 || first > 0x7FFFFFFF || count <= 0 || count > 0x7FFFFFFF then
    invalid_arg "Layout.dirty_entry: run out of range";
  let b = Bytes.create dirty_entry_size in
  Bytes.set_int64_le b 0 epoch;
  Bytes.set_int32_le b 8 (Int32.of_int first);
  Bytes.set_int32_le b 12 (Int32.of_int count);
  b

let dirty_entry_epoch b ~off = Bytes.get_int64_le b off
let dirty_entry_first b ~off = Int32.to_int (Bytes.get_int32_le b (off + 8)) land 0xFFFFFFFF
let dirty_entry_count b ~off = Int32.to_int (Bytes.get_int32_le b (off + 12)) land 0xFFFFFFFF

type undo_header = { epoch : int64; seg_index : int; off : int; len : int }

let undo_header_size = 24

let align64 x = (x + 63) land lnot 63
let undo_slot ~off ~payload_len = align64 (off + undo_header_size + payload_len)

let align32 x = (x + 31) land lnot 31
let undo_slot_packed ~off ~payload_len = align32 (off + undo_header_size + payload_len)

let header_checksum_seed (h : undo_header) =
  let mix = Int64.to_int (Int64.logand h.epoch 0x3FFFFFFFL) in
  (0x811c9dc5 lxor mix lxor (h.seg_index * 131) lxor (h.off * 31) lxor (h.len * 7))
  land 0xFFFFFFFF

let write_undo_header image ~off h =
  Mem.Image.write_u64 image off h.epoch;
  Mem.Image.write_u32 image (off + 8) h.seg_index;
  Mem.Image.write_u32 image (off + 12) h.off;
  Mem.Image.write_u32 image (off + 16) h.len;
  Mem.Image.write_u32 image (off + 20)
    (Mem.Image.fnv32 image ~seed:(header_checksum_seed h) ~off:(off + undo_header_size) ~len:h.len)

let encode_undo h ~payload =
  if Bytes.length payload <> h.len then invalid_arg "Layout.encode_undo: payload length mismatch";
  let b = Bytes.create (undo_header_size + h.len) in
  Bytes.blit payload 0 b undo_header_size h.len;
  write_undo_header (Mem.Image.of_bytes b) ~off:0 h;
  b

let decode_undo_header b ~off =
  if off < 0 || off + undo_header_size > Bytes.length b then None
  else
    let epoch = Bytes.get_int64_le b off in
    let seg_index = Int32.to_int (Bytes.get_int32_le b (off + 8)) in
    let off' = Int32.to_int (Bytes.get_int32_le b (off + 12)) in
    let len = Int32.to_int (Bytes.get_int32_le b (off + 16)) in
    if seg_index < 0 || off' < 0 || len <= 0 || off + undo_header_size + len > Bytes.length b then None
    else Some { epoch; seg_index; off = off'; len }

let verify_undo b ~off (h : undo_header) =
  let stored = Int32.to_int (Bytes.get_int32_le b (off + 20)) land 0xFFFFFFFF in
  let crc =
    Mem.Image.fnv32 (Mem.Image.of_bytes b) ~seed:(header_checksum_seed h)
      ~off:(off + undo_header_size) ~len:h.len
  in
  stored = crc
