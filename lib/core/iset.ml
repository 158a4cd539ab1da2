(* An ordered set of disjoint byte intervals, the per-transaction
   write-set index behind redundancy elision (DESIGN.md).

   Representation: a map from interval start offset to its exclusive
   end.  The invariant is strict: intervals are non-empty, disjoint
   AND non-adjacent — [add] merges touching neighbours eagerly — so
   [intervals] is already the coalesced run list and [covers] is a
   single predecessor lookup. *)

module M = Map.Make (Int)

type t = int M.t  (* start offset -> exclusive end *)

let empty = M.empty
let is_empty = M.is_empty
let cardinal = M.cardinal

let check_range name ~off ~len =
  if off < 0 || len < 0 then
    invalid_arg (Printf.sprintf "Iset.%s: negative range (off=%d len=%d)" name off len)

let add t ~off ~len =
  check_range "add" ~off ~len;
  if len = 0 then t
  else if M.is_empty t then M.singleton off (off + len)
  else begin
    let lo = ref off and hi = ref (off + len) in
    let t = ref t in
    (* Absorb the predecessor if it reaches (or touches) [lo]... *)
    (match M.find_last_opt (fun k -> k <= !lo) !t with
    | Some (k, e) when e >= !lo ->
        lo := k;
        hi := max !hi e;
        t := M.remove k !t
    | _ -> ());
    (* ... then every successor starting at or before (touching) [hi]. *)
    let rec absorb () =
      match M.find_first_opt (fun k -> k > !lo) !t with
      | Some (k, e) when k <= !hi ->
          hi := max !hi e;
          t := M.remove k !t;
          absorb ()
      | _ -> ()
    in
    absorb ();
    M.add !lo !hi !t
  end

let covers t ~off ~len =
  check_range "covers" ~off ~len;
  len = 0
  ||
  match M.find_last_opt (fun k -> k <= off) t with
  | Some (_, e) -> off + len <= e
  | None -> false

let uncovered t ~off ~len =
  check_range "uncovered" ~off ~len;
  if M.is_empty t then if len = 0 then [] else [ (off, len) ]
  else begin
    let hi = off + len in
    let rec go pos acc =
      if pos >= hi then List.rev acc
      else
        match M.find_last_opt (fun k -> k <= pos) t with
        | Some (_, e) when e > pos -> go (min e hi) acc
        | _ ->
            (* [pos] is uncovered; the gap runs to the next interval. *)
            let gap_end =
              match M.find_first_opt (fun k -> k > pos) t with
              | Some (k, _) -> min k hi
              | None -> hi
            in
            go gap_end ((pos, gap_end - pos) :: acc)
    in
    go off []
  end

let intervals t = M.fold (fun lo hi acc -> (lo, hi - lo) :: acc) t [] |> List.rev
let total t = M.fold (fun lo hi acc -> acc + (hi - lo)) t 0

let touch ~align hi o = (hi + align - 1) / align * align >= o / align * align

let glue t ~align =
  if align <= 0 then invalid_arg "Iset.glue: align must be positive";
  (* Two runs whose [align]-byte line spans touch would share packets
     anyway: ship their exact hull as one run.  Runs in disjoint line
     spans keep their exact extents, and a set with no such pair is
     its own glue. *)
  let touch = touch ~align in
  let rec glues = function
    | (o, l) :: ((o', _) :: _ as rest) -> touch (o + l) o' || glues rest
    | _ -> false
  in
  match intervals t with
  | (off0, len0) :: rest as runs when glues runs ->
      let flush acc lo hi = add acc ~off:lo ~len:(hi - lo) in
      let rec go acc lo hi = function
        | [] -> flush acc lo hi
        | (o, l) :: rest ->
            if touch hi o then go acc lo (o + l) rest else go (flush acc lo hi) o (o + l) rest
      in
      go empty off0 (off0 + len0) rest
  | _ -> t

let union a b =
  let small, large = if M.cardinal a <= M.cardinal b then (a, b) else (b, a) in
  M.fold (fun lo hi acc -> add acc ~off:lo ~len:(hi - lo)) small large

let equal = M.equal Int.equal

let pp fmt t =
  Format.fprintf fmt "{%s}"
    (String.concat "; "
       (List.map (fun (off, len) -> Printf.sprintf "[%d,%d)" off (off + len)) (intervals t)))
