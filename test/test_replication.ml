(* N-way mirroring: the paper's "at least two different PCs".  Tests
   cover degraded mode, highest-epoch recovery, mirror attach/detach
   and crash atomicity with several mirrors. *)

open Sim
module P = Perseas
module Node = Cluster.Node

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_i64 = check Alcotest.int64

type bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  servers : Netram.Server.t list; (* one per mirror node *)
  t : P.t;
}

(* Primary on node 0; [k] mirrors on nodes 1..k; one spare at the end. *)
let bed ?config ~k () =
  let clock = Clock.create () in
  let dram = 4 * 1024 * 1024 in
  let specs =
    Cluster.spec ~dram_size:dram ~power_supply:0 "primary"
    :: (List.init k (fun i ->
            Cluster.spec ~dram_size:dram ~power_supply:(i + 1) (Printf.sprintf "mirror%d" i))
       @ [ Cluster.spec ~dram_size:dram ~power_supply:(k + 1) "spare" ])
  in
  let cluster = Cluster.create ~clock specs in
  let servers = List.init k (fun i -> Netram.Server.create (Cluster.node cluster (i + 1))) in
  let clients = List.map (fun server -> Netram.Client.create ~cluster ~local:0 ~server) servers in
  { clock; cluster; servers; t = P.init_replicated ?config clients }

let with_db ?config ~k ?(size = 4096) () =
  let b = bed ?config ~k () in
  let seg = P.malloc b.t ~name:"db" ~size in
  P.write b.t seg ~off:0 (Bytes.init size (fun i -> Char.chr (i land 0xff)));
  P.init_remote_db b.t;
  (b, seg)

let spare_id b = Cluster.size b.cluster - 1

let commit_random b seg fill =
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:64 ~len:128;
  P.write b.t seg ~off:64 (Bytes.make 128 fill);
  P.commit txn

(* ------------------------------------------------------------------ *)

let test_init_validation () =
  (try
     ignore (P.init_replicated []);
     Alcotest.fail "empty mirror set"
   with Invalid_argument _ -> ());
  let b = bed ~k:2 () in
  (* Duplicate server nodes rejected. *)
  let dup = Netram.Client.create ~cluster:b.cluster ~local:0 ~server:(List.hd b.servers) in
  try
    ignore (P.init_replicated [ dup; dup ]);
    Alcotest.fail "duplicate mirrors"
  with Invalid_argument _ | Failure _ -> ()

let test_all_mirrors_in_sync () =
  let b, seg = with_db ~k:3 () in
  commit_random b seg 'x';
  let local = P.checksum b.t seg in
  let sums = P.mirror_checksums b.t seg in
  check_int "three mirrors" 3 (List.length sums);
  List.iter (fun (i, c) -> check_i64 (Printf.sprintf "mirror %d in sync" i) local c) sums

let test_degraded_mode_on_mirror_death () =
  let b, seg = with_db ~k:2 () in
  commit_random b seg 'a';
  (* Kill mirror 0 (node 1); the next transaction must succeed against
     the survivor, with the loss counted. *)
  ignore (Cluster.crash_node b.cluster 1 Cluster.Failure.Hardware_error);
  commit_random b seg 'b';
  check_int "one mirror left" 1 (P.mirror_count b.t);
  check_int "loss counted" 1 (P.stats b.t).mirrors_lost;
  check_i64 "survivor in sync" (P.checksum b.t seg) (P.mirror_checksum b.t seg);
  (* And recovery from the survivor works. *)
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 =
    P.recover_replicated ~cluster:b.cluster ~local:(spare_id b) ~servers:b.servers ()
  in
  let seg2 = Option.get (P.segment t2 "db") in
  check Alcotest.string "latest commit present" (String.make 8 'b')
    (Bytes.to_string (P.read t2 seg2 ~off:64 ~len:8))

let test_all_mirrors_lost_raises () =
  let b, seg = with_db ~k:2 () in
  let pre = P.checksum b.t seg in
  ignore (Cluster.crash_node b.cluster 1 Cluster.Failure.Hardware_error);
  ignore (Cluster.crash_node b.cluster 2 Cluster.Failure.Hardware_error);
  (try
     commit_random b seg 'z';
     Alcotest.fail "expected All_mirrors_lost"
   with P.All_mirrors_lost -> ());
  (* The wounded transaction was rolled back and closed: the local
     image is the pre-state and the library is still usable. *)
  check_i64 "local state rolled back" pre (P.checksum b.t seg);
  let txn = P.begin_transaction b.t in
  P.abort txn

(* A mirror whose node dies after the transaction declared its range is
   noticed only by the commit, which drops it at its first copy and
   sends the rest to the survivor.  The dry run counts the mirrors the
   commit will reach, so it still equals the packets the commit — and
   in group mode the flush that carries it — puts on the wire. *)
let test_commit_packets_after_unnoticed_death () =
  List.iter
    (fun (mode, config) ->
      let b, seg = with_db ?config ~k:2 () in
      let nic = Cluster.nic b.cluster in
      let packets () =
        let c = Sci.Nic.counters nic in
        c.Sci.Nic.packets64 + c.Sci.Nic.packets16
      in
      let txn = P.begin_transaction b.t in
      P.set_range txn seg ~off:72 ~len:24;
      P.write b.t seg ~off:72 (Bytes.make 24 'u');
      ignore (Cluster.crash_node b.cluster 2 Cluster.Failure.Hardware_error);
      let predicted = P.commit_packets txn in
      let p0 = packets () in
      P.commit txn;
      P.flush b.t;
      check_int (mode ^ ": dry run = the commit's NIC packet delta") predicted (packets () - p0);
      check_bool (mode ^ ": the commit sent something") true (predicted > 0);
      check (Alcotest.list Alcotest.int) (mode ^ ": the dead mirror was dropped") [ 1 ]
        (P.live_mirrors b.t))
    [ ("eager", None); ("group", Some { P.default_config with group_commit = 4 }) ]

let test_mid_commit_total_loss_recovers () =
  (* Both mirrors die in the middle of commit's packet stream: the
     commit must raise All_mirrors_lost, roll the local image back, and
     leave the library able to re-mirror and commit again. *)
  let b, seg = with_db ~k:2 () in
  commit_random b seg 'm';
  let pre = P.checksum b.t seg in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:512;
  P.write b.t seg ~off:0 (Bytes.make 512 'n');
  let total = P.commit_packets txn in
  let sent = ref 0 in
  P.set_packet_hook b.t
    (Some
       (fun () ->
         if !sent = total / 2 then begin
           ignore (Cluster.crash_node b.cluster 1 Cluster.Failure.Power_outage);
           ignore (Cluster.crash_node b.cluster 2 Cluster.Failure.Power_outage)
         end;
         incr sent));
  (try
     P.commit txn;
     Alcotest.fail "expected All_mirrors_lost"
   with P.All_mirrors_lost -> ());
  P.set_packet_hook b.t None;
  check_i64 "rolled back to the last committed state" pre (P.checksum b.t seg);
  check_int "both losses counted" 2 (P.stats b.t).mirrors_lost;
  (* begin/abort work again immediately... *)
  let txn = P.begin_transaction b.t in
  P.abort txn;
  (* ...and a fresh mirror restores full service. *)
  P.attach_mirror b.t ~server:(Netram.Server.create (Cluster.node b.cluster (spare_id b)));
  commit_random b seg 'o';
  check_i64 "new mirror tracks commits" (P.checksum b.t seg) (P.mirror_checksum b.t seg);
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "scrub clean" []
    (P.verify_mirrors b.t)

let test_attach_mirror_grows_set () =
  let b, seg = with_db ~k:1 () in
  commit_random b seg 'p';
  let server2 = Netram.Server.create (Cluster.node b.cluster (spare_id b)) in
  P.attach_mirror b.t ~server:server2;
  check_int "two mirrors" 2 (P.mirror_count b.t);
  (* The fresh mirror holds the full current state. *)
  let sums = P.mirror_checksums b.t seg in
  List.iter (fun (_, c) -> check_i64 "in sync" (P.checksum b.t seg) c) sums;
  (* Transactions propagate to both. *)
  commit_random b seg 'q';
  List.iter
    (fun (_, c) -> check_i64 "in sync after commit" (P.checksum b.t seg) c)
    (P.mirror_checksums b.t seg)

let test_attach_duplicate_rejected () =
  let b, _ = with_db ~k:1 () in
  try
    P.attach_mirror b.t ~server:(List.hd b.servers);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_detach_mirror () =
  let b, seg = with_db ~k:2 () in
  P.detach_mirror b.t ~node_id:1;
  check_int "one live" 1 (P.mirror_count b.t);
  commit_random b seg 'd';
  check_i64 "survivor tracks commits" (P.checksum b.t seg) (P.mirror_checksum b.t seg);
  try
    P.detach_mirror b.t ~node_id:1;
    Alcotest.fail "double detach"
  with Invalid_argument _ -> ()

let test_membership_guards_during_txn () =
  (* Membership changes no longer freeze for open transactions: the
     join copies the local image and then scrubs the open transactions'
     before-images over it, so the joiner replicates the committed
     state — never the uncommitted bytes. *)
  let b, seg = with_db ~k:2 () in
  let spare = Netram.Server.create (Cluster.node b.cluster (spare_id b)) in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:16;
  P.write b.t seg ~off:0 (Bytes.make 16 'u');
  P.attach_mirror b.t ~server:spare;
  check_int "attach during open transaction" 3 (P.mirror_count b.t);
  P.abort txn;
  (* After the abort, local == committed state; the joiner must match
     even though the copy happened while 'u' was in the image. *)
  List.iter
    (fun (_, c) -> check_i64 "joiner holds committed state" (P.checksum b.t seg) c)
    (P.mirror_checksums b.t seg);
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:64 ~len:16;
  P.write b.t seg ~off:64 (Bytes.make 16 'd');
  P.detach_mirror b.t ~node_id:1;
  check_int "detach during open transaction" 2 (P.mirror_count b.t);
  P.commit txn;
  commit_random b seg 'v';
  List.iter
    (fun (_, c) -> check_i64 "survivors in sync" (P.checksum b.t seg) c)
    (P.mirror_checksums b.t seg)

let test_detach_last_mirror_refused () =
  (* Detaching the only live mirror would leave nothing to recover
     from; the operation must refuse, and the survivor must keep
     replicating. *)
  let b, seg = with_db ~k:1 () in
  (try
     P.detach_mirror b.t ~node_id:1;
     Alcotest.fail "detached the last live mirror"
   with Failure _ -> ());
  check_int "mirror still live" 1 (P.mirror_count b.t);
  commit_random b seg 'w';
  check_i64 "still replicating" (P.checksum b.t seg) (P.mirror_checksum b.t seg);
  (* With a replacement attached the same detach becomes legal. *)
  P.attach_mirror b.t ~server:(Netram.Server.create (Cluster.node b.cluster (spare_id b)));
  P.detach_mirror b.t ~node_id:1;
  check_int "replacement carries on alone" 1 (P.mirror_count b.t);
  commit_random b seg 'x';
  check_i64 "replacement tracks commits" (P.checksum b.t seg) (P.mirror_checksum b.t seg)

let test_highest_epoch_wins () =
  (* Crash between the two epoch writes of a 2-mirror commit: mirror 0
     believes the transaction committed, mirror 1 does not.  Recovery
     must trust mirror 0 and preserve the transaction — and must do so
     even when the mirrors are probed in the other order. *)
  let scenario ~order =
    let b, seg = with_db ~k:2 () in
    let txn = P.begin_transaction b.t in
    P.set_range txn seg ~off:0 ~len:16;
    P.write b.t seg ~off:0 (Bytes.make 16 'E');
    let total = P.commit_packets txn in
    (* Packets: per-mirror undo already sent; commit sends (data +
       epoch) per mirror.  Cut after mirror 0's epoch write = total
       minus mirror 1's epoch packet. *)
    let cut = total - 1 in
    let sent = ref 0 in
    let exception Crash in
    P.set_packet_hook b.t (Some (fun () -> if !sent >= cut then raise Crash else incr sent));
    (match P.commit txn with () -> Alcotest.fail "expected crash" | exception Crash -> ());
    P.set_packet_hook b.t None;
    ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
    let servers = match order with `Forward -> b.servers | `Reverse -> List.rev b.servers in
    let t2 = P.recover_replicated ~cluster:b.cluster ~local:(spare_id b) ~servers () in
    let seg2 = Option.get (P.segment t2 "db") in
    check Alcotest.string "committed data preserved" (String.make 16 'E')
      (Bytes.to_string (P.read t2 seg2 ~off:0 ~len:16));
    (* After recovery, every surviving mirror is resynced. *)
    List.iter
      (fun (_, c) -> check_i64 "mirrors resynced" (P.checksum t2 seg2) c)
      (P.mirror_checksums t2 seg2)
  in
  scenario ~order:`Forward;
  scenario ~order:`Reverse

let test_recovery_reattaches_survivors () =
  let b, seg = with_db ~k:3 () in
  commit_random b seg 'r';
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Power_outage);
  let t2 =
    P.recover_replicated ~cluster:b.cluster ~local:(spare_id b) ~servers:b.servers ()
  in
  check_int "all three mirrors back" 3 (P.mirror_count t2);
  let seg2 = Option.get (P.segment t2 "db") in
  List.iter
    (fun (_, c) -> check_i64 "resynced" (P.checksum t2 seg2) c)
    (P.mirror_checksums t2 seg2)

let exhaustive_cut_atomicity ~k =
  (* Enumerate every packet cut of a 2-range transaction against [k]
     mirrors; recovery (probing all mirrors) must yield pre or post. *)
  let run cut =
    let b, seg = with_db ~k ~size:8192 () in
    let pre = P.checksum b.t seg in
    let txn = P.begin_transaction b.t in
    let sent = ref 0 in
    let exception Crash in
    let hook () = if !sent >= cut then raise Crash else incr sent in
    P.set_packet_hook b.t (Some hook);
    let crashed =
      try
        P.set_range txn seg ~off:100 ~len:40;
        P.set_packet_hook b.t None;
        P.write b.t seg ~off:100 (Bytes.make 40 'A');
        P.set_packet_hook b.t (Some hook);
        P.set_range txn seg ~off:5000 ~len:150;
        P.set_packet_hook b.t None;
        P.write b.t seg ~off:5000 (Bytes.make 150 'B');
        P.set_packet_hook b.t (Some hook);
        P.commit txn;
        false
      with Crash -> true
    in
    P.set_packet_hook b.t None;
    let post = P.checksum b.t seg in
    if crashed then begin
      ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
      let t2 =
        P.recover_replicated ~cluster:b.cluster ~local:(spare_id b) ~servers:b.servers ()
      in
      let seg2 = Option.get (P.segment t2 "db") in
      let got = P.checksum t2 seg2 in
      if got <> pre && got <> post then Alcotest.failf "atomicity violated at cut %d (k=%d)" cut k;
      List.iter
        (fun (_, c) -> check_i64 "mirrors agree" got c)
        (P.mirror_checksums t2 seg2);
      true
    end
    else false
  in
  let cut = ref 0 in
  while run !cut do
    incr cut
  done

let test_crash_atomicity_two_mirrors () = exhaustive_cut_atomicity ~k:2
let test_crash_atomicity_three_mirrors () = exhaustive_cut_atomicity ~k:3

let prop_replicated_crash_atomicity =
  QCheck.Test.make ~name:"random cut with 2 mirrors yields pre- or post-state" ~count:60
    QCheck.(pair (int_bound 50) (pair (int_bound 3000) (int_range 1 600)))
    (fun (cut, (off, len)) ->
      let b, seg = with_db ~k:2 ~size:4096 () in
      let off = min off (4096 - len) in
      let pre = P.checksum b.t seg in
      let txn = P.begin_transaction b.t in
      let sent = ref 0 in
      let exception Crash in
      let hook () = if !sent >= cut then raise Crash else incr sent in
      P.set_packet_hook b.t (Some hook);
      let crashed =
        try
          P.set_range txn seg ~off ~len;
          P.set_packet_hook b.t None;
          P.write b.t seg ~off (Bytes.make len 'R');
          P.set_packet_hook b.t (Some hook);
          P.commit txn;
          false
        with Crash -> true
      in
      P.set_packet_hook b.t None;
      let post = P.checksum b.t seg in
      if not crashed then true
      else begin
        ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
        let t2 =
          P.recover_replicated ~cluster:b.cluster ~local:(spare_id b) ~servers:b.servers ()
        in
        let seg2 = Option.get (P.segment t2 "db") in
        let got = P.checksum t2 seg2 in
        got = pre || got = post
      end)

let test_survives_k_minus_1_failures () =
  (* With three mirrors, lose the primary and two mirrors at once;
     the last mirror still recovers everything. *)
  let b, seg = with_db ~k:3 () in
  commit_random b seg 'k';
  let expect = P.checksum b.t seg in
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Power_outage);
  ignore (Cluster.crash_node b.cluster 1 Cluster.Failure.Software_error);
  ignore (Cluster.crash_node b.cluster 2 Cluster.Failure.Hardware_error);
  let t2 =
    P.recover_replicated ~cluster:b.cluster ~local:(spare_id b) ~servers:b.servers ()
  in
  check_i64 "recovered from the last mirror" expect (P.checksum t2 (Option.get (P.segment t2 "db")));
  check_int "only one mirror in the new set" 1 (P.mirror_count t2)

let test_replication_cost_scales () =
  (* Each extra mirror adds remote traffic: k=2 commits are costlier
     than k=1, but far less than twice (local work is shared). *)
  let cost k =
    let b, seg = with_db ~k () in
    let t0 = Clock.now b.clock in
    commit_random b seg 'c';
    Clock.now b.clock - t0
  in
  let c1 = cost 1 and c2 = cost 2 in
  check_bool "k=2 dearer than k=1" true (c2 > c1);
  check_bool "but less than 2x" true (c2 < 2 * c1)

let suite =
  [
    ("replicated init validation", `Quick, test_init_validation);
    ("all mirrors stay in sync", `Quick, test_all_mirrors_in_sync);
    ("degraded mode on mirror death", `Quick, test_degraded_mode_on_mirror_death);
    ("all mirrors lost raises", `Quick, test_all_mirrors_lost_raises);
    ("mid-commit total mirror loss recovers", `Quick, test_mid_commit_total_loss_recovers);
    ("attach_mirror grows the set", `Quick, test_attach_mirror_grows_set);
    ("attach duplicate rejected", `Quick, test_attach_duplicate_rejected);
    ("detach_mirror", `Quick, test_detach_mirror);
    ("membership changes scrub open transactions", `Quick, test_membership_guards_during_txn);
    ("last live mirror cannot be detached", `Quick, test_detach_last_mirror_refused);
    ("highest epoch wins at recovery", `Quick, test_highest_epoch_wins);
    ("recovery reattaches surviving mirrors", `Quick, test_recovery_reattaches_survivors);
    ("crash atomicity, two mirrors, every cut", `Slow, test_crash_atomicity_two_mirrors);
    ("crash atomicity, three mirrors, every cut", `Slow, test_crash_atomicity_three_mirrors);
    QCheck_alcotest.to_alcotest prop_replicated_crash_atomicity;
    ("survives k-1 mirror failures", `Quick, test_survives_k_minus_1_failures);
    ("replication cost scaling", `Quick, test_replication_cost_scales);
    ( "commit_packets counts only the mirrors the commit reaches",
      `Quick,
      test_commit_packets_after_unnoticed_death );
  ]
