open Mem

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Image *)

let test_image_rw () =
  let img = Image.create ~size:64 in
  Image.write_u8 img 0 0xab;
  check_int "u8" 0xab (Image.read_u8 img 0);
  Image.write_u32 img 4 0xdeadbeef;
  check_int "u32" 0xdeadbeef (Image.read_u32 img 4);
  Image.write_u64 img 8 0x1122334455667788L;
  check Alcotest.int64 "u64" 0x1122334455667788L (Image.read_u64 img 8);
  Image.write_bytes img ~off:20 (Bytes.of_string "hello");
  check Alcotest.string "bytes" "hello" (Bytes.to_string (Image.read_bytes img ~off:20 ~len:5))

let test_image_bounds () =
  let img = Image.create ~size:16 in
  let expect_invalid f = try f (); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> () in
  expect_invalid (fun () -> ignore (Image.read_u8 img 16));
  expect_invalid (fun () -> Image.write_u32 img 13 0);
  expect_invalid (fun () -> ignore (Image.read_bytes img ~off:(-1) ~len:2));
  expect_invalid (fun () -> Image.fill img ~off:8 ~len:9 'x')

let test_image_blit_between () =
  let a = Image.create ~size:32 and b = Image.create ~size:32 in
  Image.write_bytes a ~off:0 (Bytes.of_string "0123456789");
  Image.blit ~src:a ~src_off:2 ~dst:b ~dst_off:10 ~len:5;
  check Alcotest.string "copied" "23456" (Bytes.to_string (Image.read_bytes b ~off:10 ~len:5))

let test_image_blit_overlap () =
  let img = Image.create ~size:16 in
  Image.write_bytes img ~off:0 (Bytes.of_string "abcdef");
  Image.blit ~src:img ~src_off:0 ~dst:img ~dst_off:2 ~len:4;
  check Alcotest.string "memmove semantics" "ababcd"
    (Bytes.to_string (Image.read_bytes img ~off:0 ~len:6))

let test_image_wipe_and_checksum () =
  let img = Image.create ~size:128 in
  Image.write_bytes img ~off:0 (Bytes.of_string "payload");
  let before = Image.checksum img ~off:0 ~len:128 in
  Image.wipe img;
  check_bool "wipe changes checksum" true (before <> Image.checksum img ~off:0 ~len:128);
  check_int "wipe pattern" 0xde (Image.read_u8 img 0)

(* 32-bit FNV-1a: the standard vectors from the offset basis, a seed
   carried across a split range, and one bounds check for the range. *)
let test_image_fnv32 () =
  let img = Image.of_bytes (Bytes.of_string "xxfoobar") in
  let basis = 0x811c9dc5 in
  check_int "empty range" basis (Image.fnv32 img ~seed:basis ~off:2 ~len:0);
  check_int "\"foobar\"" 0xbf9cf968 (Image.fnv32 img ~seed:basis ~off:2 ~len:6);
  check_int "a split range chains through the seed"
    (Image.fnv32 img ~seed:basis ~off:2 ~len:6)
    (Image.fnv32 img ~seed:(Image.fnv32 img ~seed:basis ~off:2 ~len:2) ~off:4 ~len:4);
  match Image.fnv32 img ~seed:basis ~off:4 ~len:5 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_image_equal_range () =
  let a = Image.create ~size:16 and b = Image.create ~size:16 in
  check_bool "fresh equal" true (Image.equal_range a b ~off:0 ~len:16);
  Image.write_u8 b 7 1;
  check_bool "differ" false (Image.equal_range a b ~off:0 ~len:16);
  check_bool "prefix equal" true (Image.equal_range a b ~off:0 ~len:7)

(* ------------------------------------------------------------------ *)
(* Segment *)

let test_segment_basics () =
  let s = Segment.v ~base:64 ~len:32 in
  check_int "base" 64 (Segment.base s);
  check_int "len" 32 (Segment.len s);
  check_int "last" 95 (Segment.last s);
  check_bool "contains inner" true (Segment.contains s ~off:64 ~len:32);
  check_bool "not before" false (Segment.contains s ~off:63 ~len:2);
  check_bool "not after" false (Segment.contains s ~off:95 ~len:2);
  let expect_invalid f = try f (); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> () in
  expect_invalid (fun () -> ignore (Segment.v ~base:(-1) ~len:4));
  expect_invalid (fun () -> ignore (Segment.v ~base:0 ~len:0))

let test_segment_overlap () =
  let a = Segment.v ~base:0 ~len:10 and b = Segment.v ~base:10 ~len:10 in
  check_bool "adjacent do not overlap" false (Segment.overlaps a b);
  let c = Segment.v ~base:5 ~len:10 in
  check_bool "overlap" true (Segment.overlaps a c);
  check_bool "symmetric" true (Segment.overlaps c a)

(* ------------------------------------------------------------------ *)
(* Allocator *)

let ok_invariants a =
  match Allocator.check_invariants a with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariants: " ^ msg)

let test_alloc_basic () =
  let a = Allocator.create ~size:1024 () in
  let s1 = Allocator.alloc_exn a 100 in
  let s2 = Allocator.alloc_exn a 200 in
  check_bool "disjoint" false (Mem.Segment.overlaps s1 s2);
  check_int "live" 300 (Allocator.bytes_live a);
  check_int "free" 724 (Allocator.bytes_free a);
  ok_invariants a;
  Allocator.free a s1;
  check_int "live after free" 200 (Allocator.bytes_live a);
  ok_invariants a

let test_alloc_alignment () =
  let a = Allocator.create ~size:4096 () in
  let _pad = Allocator.alloc_exn a 10 in
  let s = Allocator.alloc_exn a ~align:64 100 in
  check_int "aligned" 0 (Mem.Segment.base s mod 64);
  ok_invariants a

let test_alloc_exhaustion_and_reuse () =
  let a = Allocator.create ~size:256 () in
  let s = Allocator.alloc_exn a 256 in
  check_bool "full" true (Allocator.alloc a 1 = None);
  Allocator.free a s;
  let s' = Allocator.alloc_exn a 256 in
  check_int "reuses space" (Mem.Segment.base s) (Mem.Segment.base s');
  ok_invariants a

let test_alloc_coalescing () =
  let a = Allocator.create ~size:300 () in
  let s1 = Allocator.alloc_exn a 100 in
  let s2 = Allocator.alloc_exn a 100 in
  let s3 = Allocator.alloc_exn a 100 in
  Allocator.free a s1;
  Allocator.free a s3;
  Allocator.free a s2;
  (* All free again: a single coalesced block must satisfy a full-size
     request. *)
  ignore (Allocator.alloc_exn a 300);
  ok_invariants a

let test_alloc_double_free () =
  let a = Allocator.create ~size:128 () in
  let s = Allocator.alloc_exn a 64 in
  Allocator.free a s;
  (try
     Allocator.free a s;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  ok_invariants a

let test_alloc_nonzero_base () =
  let a = Allocator.create ~base:1000 ~size:100 () in
  let s = Allocator.alloc_exn a 100 in
  check_int "base respected" 1000 (Mem.Segment.base s);
  ok_invariants a

(* Property: a random interleaving of allocs and frees preserves the
   allocator invariants, and no two live blocks ever overlap. *)
let prop_allocator_random_ops =
  QCheck.Test.make ~name:"allocator random alloc/free keeps invariants" ~count:200
    QCheck.(pair (int_bound 1000) (list (pair (int_range 1 200) bool)))
    (fun (seed, ops) ->
      let rng = Sim.Rng.create seed in
      let a = Allocator.create ~size:8192 () in
      let live = ref [] in
      List.iter
        (fun (size, do_free) ->
          if do_free && !live <> [] then begin
            let i = Sim.Rng.int rng (List.length !live) in
            let seg = List.nth !live i in
            Allocator.free a seg;
            live := List.filteri (fun j _ -> j <> i) !live
          end
          else
            match Allocator.alloc a ~align:(1 lsl Sim.Rng.int rng 7) size with
            | Some seg -> live := seg :: !live
            | None -> ())
        ops;
      (match Allocator.check_invariants a with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_report msg);
      true)

let prop_alloc_conserves_bytes =
  QCheck.Test.make ~name:"allocator conserves bytes" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 1 100))
    (fun sizes ->
      let a = Allocator.create ~size:65536 () in
      let segs = List.filter_map (fun n -> Allocator.alloc a n) sizes in
      let live = List.fold_left (fun acc s -> acc + Mem.Segment.len s) 0 segs in
      Allocator.bytes_live a = live && Allocator.bytes_free a + live = 65536)

let suite =
  [
    ("image read/write", `Quick, test_image_rw);
    ("image bounds checking", `Quick, test_image_bounds);
    ("image blit between images", `Quick, test_image_blit_between);
    ("image overlapping blit", `Quick, test_image_blit_overlap);
    ("image wipe and checksum", `Quick, test_image_wipe_and_checksum);
    ("image equal_range", `Quick, test_image_equal_range);
    ("image fnv32", `Quick, test_image_fnv32);
    ("segment basics", `Quick, test_segment_basics);
    ("segment overlap", `Quick, test_segment_overlap);
    ("allocator basic alloc/free", `Quick, test_alloc_basic);
    ("allocator alignment", `Quick, test_alloc_alignment);
    ("allocator exhaustion and reuse", `Quick, test_alloc_exhaustion_and_reuse);
    ("allocator coalescing", `Quick, test_alloc_coalescing);
    ("allocator double free rejected", `Quick, test_alloc_double_free);
    ("allocator non-zero base", `Quick, test_alloc_nonzero_base);
    QCheck_alcotest.to_alcotest prop_allocator_random_ops;
    QCheck_alcotest.to_alcotest prop_alloc_conserves_bytes;
  ]
