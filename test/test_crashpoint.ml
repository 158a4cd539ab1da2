(* The crash-point sweep harness is itself the test: every packet
   boundary of a multi-range commit (1, 2 and 3 mirrors) and of an
   attach_mirror resync is crashed and recovery is held to the oracle
   (legal image, monotone epoch, clean mirrors).  Any violation raises
   Oracle_violation and fails the test; the assertions here pin down
   the sweep's shape so a silently-shrunk sweep cannot pass. *)

module C = Harness.Crashpoint

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let crashes (r : C.report) = List.length (List.filter (fun (p : C.point) -> p.crashed) r.points)

let check_shape (r : C.report) ~min_packets =
  check_bool
    (Printf.sprintf "%s: enough packet boundaries (%d >= %d)" r.label r.total_packets min_packets)
    true
    (r.total_packets >= min_packets);
  check_int (r.label ^ ": one point per boundary plus the control run")
    (r.total_packets + 1) (List.length r.points);
  List.iter
    (fun (p : C.point) ->
      check_int (Printf.sprintf "%s: point %d mirrors clean" r.label p.index) 0 p.mismatches)
    r.points

let commit_sweep_primary ~mirrors () =
  let r = C.sweep (C.commit_scenario ~mirrors ()) in
  check_shape r ~min_packets:20;
  check_int (r.label ^ ": every boundary crashed") r.total_packets (crashes r);
  (* Every point lands on exactly the old or the new image, and both
     sides of the commit point are represented. *)
  check_int (r.label ^ ": old + new covers all points")
    (List.length r.points)
    (r.old_images + r.new_images);
  check_bool (r.label ^ ": some rollbacks") true (r.old_images > 0);
  check_bool (r.label ^ ": some commits survive") true (r.new_images > 0);
  (* Cuts inside the commit propagation leave half-pushed data that
     recovery must undo: the sweep has to witness actual repairs. *)
  check_bool (r.label ^ ": undo replay exercised") true (r.repaired > 0)

let test_commit_one_mirror () = commit_sweep_primary ~mirrors:1 ()
let test_commit_two_mirrors () = commit_sweep_primary ~mirrors:2 ()
let test_commit_three_mirrors () = commit_sweep_primary ~mirrors:3 ()

let test_attach_resync () =
  (* Crash the primary at every packet of a new mirror's resync: the
     half-attached joiner (probed first) must never derail recovery,
     and no data ever changes. *)
  let r = C.sweep (C.attach_scenario ~mirrors:1 ()) in
  check_shape r ~min_packets:20;
  List.iter
    (fun (p : C.point) ->
      check (Alcotest.string) (Printf.sprintf "point %d: database unchanged" p.index) "new"
        (C.image_label p.image))
    r.points

let test_mirror_victim_degraded () =
  (* Two mirrors, one dies at each boundary: the primary must always
     finish the transaction against the survivor. *)
  let r = C.sweep ~victim:(C.Mirror 0) (C.commit_scenario ~mirrors:2 ()) in
  check_shape r ~min_packets:20;
  check_int (r.label ^ ": commit always completes degraded") (List.length r.points) r.new_images

let test_mirror_victim_total_loss () =
  (* A single mirror dies at each boundary: most cuts lose the mirror
     set mid-transaction, which must roll back locally and leave the
     library usable (the sweep re-attaches on the spare and verifies). *)
  let r = C.sweep ~victim:(C.Mirror 0) (C.commit_scenario ~mirrors:1 ()) in
  check_shape r ~min_packets:20;
  check_int (r.label ^ ": old + new covers all points")
    (List.length r.points)
    (r.old_images + r.new_images);
  check_bool (r.label ^ ": total loss rolls back") true (r.old_images > 0)

(* Three mirrors, the middle one dies at each boundary.  Each phase goes
   to mirror 0, then 1, then 2 from one plan, so the cuts land before,
   inside and after the victim's share of every phase: the commit must
   always complete against the two survivors, which stay clean.  The
   victim must also be dropped: the sweep's scrub reads every mirror
   the engine still counts live, and a dead node's memory cannot be
   read. *)
let test_mirror_victim_mid_fanout () =
  let r = C.sweep ~victim:(C.Mirror 1) (C.commit_scenario ~mirrors:3 ()) in
  check_shape r ~min_packets:20;
  check_int (r.label ^ ": points, the control run included") 85 (List.length r.points);
  check_int (r.label ^ ": the victim dies at every cut") r.total_packets (crashes r);
  check_int (r.label ^ ": commit always completes degraded") (List.length r.points) r.new_images

(* The registry the CLI takes its scenario names from: nine names in
   list order, recovery swept by both recovering orders by default and
   every other scenario by its primary. *)
let test_named_registry () =
  let named = C.named ~mirrors:1 () in
  check (Alcotest.list Alcotest.string) "names" C.scenario_names (List.map fst named);
  check_int "nine scenarios" 9 (List.length named);
  List.iter
    (fun (name, (_, victims)) ->
      check (Alcotest.list Alcotest.string) (name ^ ": default victims")
        (if name = "recovery" then [ "recovering-target-first"; "recovering-spare-first" ]
         else [ "primary" ])
        (List.map C.victim_label victims))
    named

(* A victim the scenario has no node for is refused before the script
   runs even once. *)
let test_unfit_victim_refused_first () =
  let runs = ref 0 in
  let counted (s : C.scenario) =
    {
      s with
      C.script =
        (fun env ~checkpoint ->
          incr runs;
          s.C.script env ~checkpoint);
    }
  in
  let refused victim scenario =
    runs := 0;
    (match C.sweep ~victim (counted scenario) with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ());
    check_int (C.victim_label victim ^ ": script runs before the refusal") 0 !runs
  in
  refused C.Ckpt_target (C.commit_scenario ~mirrors:1 ());
  refused (C.Mirror 5) (C.commit_scenario ~mirrors:1 ());
  refused (C.Recovering { in_place_first = true }) (C.commit_scenario ~mirrors:1 ())

let suite =
  [
    ("named registry and default victims", `Quick, test_named_registry);
    ("an unfit victim is refused before the script runs", `Quick, test_unfit_victim_refused_first);
    ("commit sweep, one mirror", `Slow, test_commit_one_mirror);
    ("commit sweep, two mirrors", `Slow, test_commit_two_mirrors);
    ("commit sweep, three mirrors", `Slow, test_commit_three_mirrors);
    ("attach_mirror resync sweep", `Slow, test_attach_resync);
    ("mirror-victim sweep, degraded", `Slow, test_mirror_victim_degraded);
    ("mirror-victim sweep, total loss", `Slow, test_mirror_victim_total_loss);
    ("mirror-victim sweep, middle of three", `Quick, test_mirror_victim_mid_fanout);
  ]
