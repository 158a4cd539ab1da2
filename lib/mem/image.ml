type t = { data : bytes }

let create ~size =
  if size <= 0 then invalid_arg "Image.create: size must be positive";
  { data = Bytes.make size '\000' }

let of_bytes data =
  if Bytes.length data = 0 then invalid_arg "Image.of_bytes: empty buffer";
  { data }

let size t = Bytes.length t.data

let check t off len name =
  if off < 0 || len < 0 || off + len > Bytes.length t.data then
    invalid_arg
      (Printf.sprintf "Image.%s: range [%d, %d+%d) outside image of %d bytes" name off off len
         (Bytes.length t.data))

let read_u8 t off =
  check t off 1 "read_u8";
  Char.code (Bytes.get t.data off)

let write_u8 t off v =
  check t off 1 "write_u8";
  Bytes.set t.data off (Char.chr (v land 0xff))

let read_u32 t off =
  check t off 4 "read_u32";
  Int32.to_int (Bytes.get_int32_le t.data off) land 0xFFFFFFFF

let write_u32 t off v =
  check t off 4 "write_u32";
  Bytes.set_int32_le t.data off (Int32.of_int v)

let read_u64 t off =
  check t off 8 "read_u64";
  Bytes.get_int64_le t.data off

let write_u64 t off v =
  check t off 8 "write_u64";
  Bytes.set_int64_le t.data off v

let read_bytes t ~off ~len =
  check t off len "read_bytes";
  Bytes.sub t.data off len

let write_bytes t ~off b =
  check t off (Bytes.length b) "write_bytes";
  Bytes.blit b 0 t.data off (Bytes.length b)

let blit ~src ~src_off ~dst ~dst_off ~len =
  check src src_off len "blit(src)";
  check dst dst_off len "blit(dst)";
  Bytes.blit src.data src_off dst.data dst_off len

let fill t ~off ~len c =
  check t off len "fill";
  Bytes.fill t.data off len c

let wipe t = Bytes.fill t.data 0 (Bytes.length t.data) '\xde'

let equal_range a b ~off ~len =
  check a off len "equal_range(a)";
  check b off len "equal_range(b)";
  Bytes.sub a.data off len = Bytes.sub b.data off len

let checksum t ~off ~len =
  check t off len "checksum";
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.get t.data i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

let fnv32 t ~seed ~off ~len =
  check t off len "fnv32";
  let h = ref seed in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get t.data i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let snapshot t ~off ~len = read_bytes t ~off ~len
