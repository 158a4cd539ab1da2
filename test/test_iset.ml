module I = Perseas.Iset

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let ivals = Alcotest.(list (pair int int))

let of_list = List.fold_left (fun s (off, len) -> I.add s ~off ~len) I.empty

(* ------------------------------------------------------------------ *)
(* Unit tests *)

let test_empty () =
  check_bool "empty is empty" true (I.is_empty I.empty);
  check_int "empty cardinal" 0 (I.cardinal I.empty);
  check_int "empty total" 0 (I.total I.empty);
  check ivals "empty intervals" [] (I.intervals I.empty);
  check_bool "empty covers nothing" false (I.covers I.empty ~off:0 ~len:1);
  check_bool "zero-length always covered" true (I.covers I.empty ~off:5 ~len:0);
  check ivals "everything uncovered" [ (3, 7) ] (I.uncovered I.empty ~off:3 ~len:7)

let test_add_merges () =
  let s = of_list [ (0, 64); (128, 64) ] in
  check ivals "disjoint stay apart" [ (0, 64); (128, 64) ] (I.intervals s);
  check ivals "adjacent merge" [ (0, 192) ] (I.intervals (I.add s ~off:64 ~len:64));
  check ivals "overlap merges" [ (0, 100); (128, 64) ] (I.intervals (I.add s ~off:32 ~len:68));
  check ivals "bridging swallows both" [ (0, 192) ] (I.intervals (I.add s ~off:10 ~len:140));
  check ivals "superset swallows all" [ (0, 300) ] (I.intervals (I.add s ~off:0 ~len:300));
  check ivals "duplicate is no-op" (I.intervals s) (I.intervals (I.add s ~off:0 ~len:64));
  check ivals "zero len is no-op" (I.intervals s) (I.intervals (I.add s ~off:500 ~len:0));
  check_int "total counts merged bytes" 192 (I.total (I.add s ~off:64 ~len:64))

let test_covers_uncovered () =
  let s = of_list [ (10, 20); (40, 10) ] in
  check_bool "inside" true (I.covers s ~off:12 ~len:5);
  check_bool "exact" true (I.covers s ~off:10 ~len:20);
  check_bool "spans a gap" false (I.covers s ~off:10 ~len:40);
  check_bool "before" false (I.covers s ~off:0 ~len:5);
  check_bool "tail past end" false (I.covers s ~off:45 ~len:10);
  check ivals "hole in the middle" [ (30, 10) ] (I.uncovered s ~off:10 ~len:40);
  check ivals "flanks and hole" [ (5, 5); (30, 10); (50, 5) ] (I.uncovered s ~off:5 ~len:50);
  check ivals "fully covered" [] (I.uncovered s ~off:41 ~len:8);
  (* Merged adjacent declarations count as one covered run. *)
  let s = of_list [ (0, 10); (10, 10) ] in
  check_bool "spanning two merged adds" true (I.covers s ~off:5 ~len:10)

let test_glue () =
  (* Runs in disjoint 64-byte line spans keep their exact extents... *)
  let s = of_list [ (3, 10); (200, 8) ] in
  check ivals "isolated runs unchanged" [ (3, 10); (200, 8) ] (I.intervals (I.glue s ~align:64));
  check_bool "nothing to glue returns the set itself" true (I.glue s ~align:64 == s);
  (* ... runs whose line spans touch ship their exact hull. *)
  let s = of_list [ (0, 4); (60, 4) ] in
  check ivals "same line glues to hull" [ (0, 64) ] (I.intervals (I.glue s ~align:64));
  let s = of_list [ (10, 20); (40, 10) ] in
  check ivals "touching line spans glue to hull" [ (10, 40) ] (I.intervals (I.glue s ~align:64));
  let s = of_list [ (0, 64); (128, 64) ] in
  check ivals "gap of a whole line stays split" [ (0, 64); (128, 64) ]
    (I.intervals (I.glue s ~align:64));
  check ivals "glue of empty" [] (I.intervals (I.glue I.empty ~align:64))

let test_union () =
  let a = of_list [ (0, 64); (128, 64) ] and b = of_list [ (64, 64) ] in
  check ivals "union merges across both" [ (0, 192) ] (I.intervals (I.union a b));
  check ivals "union with empty" (I.intervals a) (I.intervals (I.union a I.empty));
  check ivals "union with empty (flipped)" (I.intervals a) (I.intervals (I.union I.empty a))

let test_invalid () =
  let expect_invalid f = try f (); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> () in
  expect_invalid (fun () -> ignore (I.add I.empty ~off:(-1) ~len:4));
  expect_invalid (fun () -> ignore (I.add I.empty ~off:0 ~len:(-4)));
  expect_invalid (fun () -> ignore (I.uncovered I.empty ~off:(-1) ~len:4));
  expect_invalid (fun () -> ignore (I.glue I.empty ~align:(-64)))

(* ------------------------------------------------------------------ *)
(* Properties against a naive bit-array model *)

let universe = 512

let model_of ranges =
  let m = Array.make universe false in
  List.iter (fun (off, len) -> for i = off to off + len - 1 do m.(i) <- true done) ranges;
  m

let model_intervals m =
  let acc = ref [] and start = ref None in
  for i = 0 to universe do
    match (!start, i < universe && m.(i)) with
    | None, true -> start := Some i
    | Some s, false ->
        acc := (s, i - s) :: !acc;
        start := None
    | _ -> ()
  done;
  List.rev !acc

let gen_ranges =
  QCheck.(
    list_of_size (Gen.int_range 0 30)
      (pair (int_bound (universe - 1)) (int_range 1 64)))

let clamp (off, len) = (off, min len (universe - off))

let prop_matches_model =
  QCheck.Test.make ~name:"iset matches the bit-array model" ~count:500
    QCheck.(pair gen_ranges gen_ranges)
    (fun (adds, queries) ->
      let adds = List.map clamp adds in
      let s = of_list adds in
      let m = model_of adds in
      if I.intervals s <> model_intervals m then
        QCheck.Test.fail_reportf "intervals diverge: %a" I.pp s;
      if I.total s <> List.fold_left (fun acc (_, l) -> acc + l) 0 (model_intervals m) then
        QCheck.Test.fail_report "total diverges";
      List.iter
        (fun q ->
          let off, len = clamp q in
          let covered = ref true and frags = ref [] and run = ref None in
          for i = off to off + len - 1 do
            if not m.(i) then covered := false;
            match (!run, m.(i)) with
            | None, false -> run := Some i
            | Some s, true ->
                frags := (s, i - s) :: !frags;
                run := None
            | _ -> ()
          done;
          (match !run with Some s -> frags := (s, off + len - s) :: !frags | None -> ());
          if I.covers s ~off ~len <> !covered then
            QCheck.Test.fail_reportf "covers diverges at [%d,+%d)" off len;
          if I.uncovered s ~off ~len <> List.rev !frags then
            QCheck.Test.fail_reportf "uncovered diverges at [%d,+%d)" off len)
        queries;
      true)

(* glue output must cover the input, stay within its hull per line span,
   and never split or reorder. *)
let prop_glue_sound =
  QCheck.Test.make ~name:"glue covers its input and only bridges shared lines" ~count:500 gen_ranges
    (fun adds ->
      let adds = List.map clamp adds in
      let s = of_list adds in
      let g = I.glue s ~align:64 in
      (* Every input byte is still covered. *)
      List.iter
        (fun (off, len) ->
          if len > 0 && not (I.covers g ~off ~len) then
            QCheck.Test.fail_reportf "glue lost [%d,+%d)" off len)
        adds;
      (* Gluing adds no bytes outside the input's line span and never
         increases the run count. *)
      if I.cardinal g > I.cardinal s then QCheck.Test.fail_report "glue split a run";
      List.iter
        (fun (off, len) ->
          let lo = off / 64 * 64 and hi = (off + len + 63) / 64 * 64 in
          let touched =
            List.exists (fun (o, l) -> o < hi && lo < o + l) (I.intervals s)
          in
          if not touched then QCheck.Test.fail_reportf "glued run [%d,+%d) in untouched lines" off len)
        (I.intervals g);
      true)

(* union against the same bit-array model. *)
let prop_union =
  QCheck.Test.make ~name:"union matches the bit-array model" ~count:500
    QCheck.(pair gen_ranges gen_ranges)
    (fun (ra, rb) ->
      let ra = List.map clamp ra and rb = List.map clamp rb in
      let a = of_list ra and b = of_list rb in
      let ma = model_of ra and mb = model_of rb in
      let mu = Array.mapi (fun i x -> x || mb.(i)) ma in
      if I.intervals (I.union a b) <> model_intervals mu then
        QCheck.Test.fail_reportf "union diverges: %a vs %a" I.pp a I.pp b;
      true)

let suite =
  [
    ("empty set", `Quick, test_empty);
    ("add merges overlap and adjacency", `Quick, test_add_merges);
    ("covers and uncovered", `Quick, test_covers_uncovered);
    ("glue shared-line runs", `Quick, test_glue);
    ("union", `Quick, test_union);
    ("invalid arguments rejected", `Quick, test_invalid);
    QCheck_alcotest.to_alcotest prop_matches_model;
    QCheck_alcotest.to_alcotest prop_glue_sound;
    QCheck_alcotest.to_alcotest prop_union;
  ]
