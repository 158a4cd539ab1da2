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
  server : Netram.Server.t;
  t : P.t;
}

let bed ?config ?(dram = 4 * 1024 * 1024) () =
  let clock = Clock.create () in
  let cluster =
    Cluster.create ~clock
      [
        Cluster.spec ~dram_size:dram ~power_supply:0 "primary";
        Cluster.spec ~dram_size:dram ~power_supply:1 "mirror";
        Cluster.spec ~dram_size:dram ~power_supply:2 "spare";
      ]
  in
  let server = Netram.Server.create (Cluster.node cluster 1) in
  let client = Netram.Client.create ~cluster ~local:0 ~server in
  { clock; cluster; server; t = P.init ?config client }

let with_db ?config ?dram ?(size = 4096) () =
  let b = bed ?config ?dram () in
  let seg = P.malloc b.t ~name:"db" ~size in
  P.write b.t seg ~off:0 (Bytes.init size (fun i -> Char.chr (i land 0xff)));
  P.init_remote_db b.t;
  (b, seg)

(* ------------------------------------------------------------------ *)
(* Lifecycle and protocol rules *)

let test_init_mirrors_whole_db () =
  let b, seg = with_db () in
  check_i64 "mirror equals local" (P.checksum b.t seg) (P.mirror_checksum b.t seg);
  check_bool "ready" true (P.remote_ready b.t);
  check_i64 "epoch 1" 1L (P.epoch b.t)

let test_malloc_rules () =
  let b = bed () in
  let _seg = P.malloc b.t ~name:"a" ~size:64 in
  (try
     ignore (P.malloc b.t ~name:"a" ~size:64);
     Alcotest.fail "duplicate name"
   with Failure _ -> ());
  (try
     ignore (P.malloc b.t ~name:"has!bang" ~size:64);
     Alcotest.fail "reserved char"
   with Invalid_argument _ -> ());
  P.init_remote_db b.t;
  try
    ignore (P.malloc b.t ~name:"late" ~size:64);
    Alcotest.fail "malloc after init"
  with Failure _ -> ()

let test_transaction_rules () =
  let b, seg = with_db () in
  (* The same client cannot double-begin; a distinct client can open
     concurrently. *)
  let txn = P.begin_transaction b.t in
  (try
     ignore (P.begin_transaction b.t);
     Alcotest.fail "nested begin"
   with P.Double_begin "default" -> ());
  let peer = P.begin_transaction ~client:"peer" b.t in
  check_int "two clients open" 2 (P.open_txn_count b.t);
  P.abort peer;
  P.set_range txn seg ~off:0 ~len:8;
  P.commit txn;
  (* Closed transactions reject everything. *)
  (try
     P.commit txn;
     Alcotest.fail "double commit"
   with Failure _ -> ());
  try
    P.set_range txn seg ~off:0 ~len:8;
    Alcotest.fail "set_range on closed txn"
  with Failure _ -> ()

let test_strict_updates_enforced () =
  let b, seg = with_db () in
  (* Writes outside a transaction are rejected once live. *)
  (try
     P.write b.t seg ~off:0 (Bytes.make 4 'x');
     Alcotest.fail "write without txn"
   with Failure _ -> ());
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:100 ~len:16;
  (* Covered write fine; uncovered rejected. *)
  P.write b.t seg ~off:104 (Bytes.make 8 'y');
  (try
     P.write b.t seg ~off:200 (Bytes.make 4 'z');
     Alcotest.fail "uncovered write"
   with Failure _ -> ());
  P.abort txn

let test_commit_updates_mirror () =
  let b, seg = with_db () in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:10 ~len:100;
  P.write b.t seg ~off:10 (Bytes.make 100 'N');
  P.commit txn;
  check_i64 "mirror in sync" (P.checksum b.t seg) (P.mirror_checksum b.t seg);
  check_i64 "epoch bumped" 2L (P.epoch b.t)

let test_abort_restores_locally () =
  let b, seg = with_db () in
  let before = P.checksum b.t seg in
  let nic = Cluster.nic b.cluster in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:64;
  P.write b.t seg ~off:0 (Bytes.make 64 'Z');
  let written_before_abort = (Sci.Nic.counters nic).bytes_written in
  P.abort txn;
  check_i64 "local restored" before (P.checksum b.t seg);
  (* Abort is local memory copies only: no new remote traffic. *)
  check_int "no remote writes during abort" written_before_abort (Sci.Nic.counters nic).bytes_written;
  (* And the database is still usable and consistent remotely. *)
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:8;
  P.write b.t seg ~off:0 (Bytes.make 8 'q');
  P.commit txn;
  check_i64 "mirror after abort+commit" (P.checksum b.t seg) (P.mirror_checksum b.t seg)

let test_multiple_ranges_and_overlap_abort () =
  let b, seg = with_db () in
  let before = P.checksum b.t seg in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:32;
  P.set_range txn seg ~off:100 ~len:32;
  P.write b.t seg ~off:0 (Bytes.make 32 'a');
  P.write b.t seg ~off:100 (Bytes.make 32 'b');
  P.abort txn;
  check_i64 "both ranges restored" before (P.checksum b.t seg)

let test_undo_overflow () =
  let config = { P.default_config with undo_capacity = 4096 } in
  let b, seg = with_db ~config () in
  let txn = P.begin_transaction b.t in
  (try
     P.set_range txn seg ~off:0 ~len:4090;
     Alcotest.fail "expected Undo_overflow"
   with P.Undo_overflow -> ());
  P.abort txn

let test_undo_overflow_mid_transaction () =
  (* Overflow on the second range of a transaction: the first range is
     already logged (locally and remotely), the failing one must not
     leave a torn undo record behind.  Abort restores the image byte
     for byte, recovery from the mirror ignores the aborted residue,
     and the engine accepts new transactions. *)
  let config = { P.default_config with undo_capacity = 4096 } in
  let b, seg = with_db ~config () in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:64;
  P.write b.t seg ~off:0 (Bytes.make 64 'c');
  P.commit txn;
  let before = P.read b.t seg ~off:0 ~len:4096 in
  let epoch_before = P.epoch b.t in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:64;
  P.write b.t seg ~off:0 (Bytes.make 64 'X');
  (try
     P.set_range txn seg ~off:64 ~len:4000;
     Alcotest.fail "expected Undo_overflow"
   with P.Undo_overflow -> ());
  P.abort txn;
  check Alcotest.string "abort restores the image byte for byte" (Bytes.to_string before)
    (Bytes.to_string (P.read b.t seg ~off:0 ~len:4096));
  check_i64 "epoch unchanged by the aborted transaction" epoch_before (P.epoch b.t);
  (* The engine is immediately usable again. *)
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:128 ~len:32;
  P.write b.t seg ~off:128 (Bytes.make 32 'n');
  P.abort txn;
  check Alcotest.string "second abort also clean" (Bytes.to_string before)
    (Bytes.to_string (P.read b.t seg ~off:0 ~len:4096));
  (* Crash the primary without committing anything further: whatever
     undo bytes the overflowing transaction pushed to the mirror must
     not be replayed into the committed image. *)
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 = P.recover ~config ~cluster:b.cluster ~local:2 ~server:b.server () in
  let seg2 = Option.get (P.segment t2 "db") in
  check Alcotest.string "recovery ignores the aborted transaction's residue"
    (Bytes.to_string before)
    (Bytes.to_string (P.read t2 seg2 ~off:0 ~len:4096));
  (* Recovery always bumps the epoch once to invalidate whatever undo
     records it applied — the image, not the counter, is the claim. *)
  check_i64 "recovered one epoch past the committed one" (Int64.add epoch_before 1L) (P.epoch t2)

(* Recovered without its config, an engine believes in the default undo
   log and segment table, both larger than the exports it adopts.  A
   copy past an export's end must raise before any byte moves, not land
   in whatever export follows it on the mirror. *)
let test_recovered_engine_stays_in_its_exports () =
  let config = { P.default_config with undo_capacity = 4096; max_segments = 4 } in
  let b, _ = with_db ~config () in
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 = P.recover ~cluster:b.cluster ~local:2 ~server:b.server () in
  let seg2 = Option.get (P.segment t2 "db") in
  let mirror = Node.dram (Cluster.node b.cluster 1) in
  let snapshot () = Mem.Image.read_bytes mirror ~off:0 ~len:(Mem.Image.size mirror) in
  let before = snapshot () in
  (* An undo record past the 4 KiB undo export. *)
  let txn = P.begin_transaction t2 in
  (try
     P.set_range txn seg2 ~off:0 ~len:4090;
     Alcotest.fail "expected Invalid_argument from the undo push"
   with Invalid_argument _ -> ());
  check_bool "undo push: the mirror is untouched" true (Bytes.equal before (snapshot ()));
  (* A 64-entry segment table past the 4-entry metadata export: a
     joining mirror's resync pushes it to every mirror. *)
  let t3 = P.recover ~cluster:b.cluster ~local:2 ~server:b.server () in
  let before = snapshot () in
  Cluster.restart_node b.cluster 0;
  (try
     P.attach_mirror t3 ~server:(Netram.Server.create (Cluster.node b.cluster 0));
     Alcotest.fail "expected Invalid_argument from the metadata push"
   with Invalid_argument _ -> ());
  check_bool "metadata push: the mirror is untouched" true (Bytes.equal before (snapshot ()))

let test_set_range_validation () =
  let b, seg = with_db () in
  let txn = P.begin_transaction b.t in
  (try
     P.set_range txn seg ~off:4090 ~len:100;
     Alcotest.fail "out of bounds"
   with Invalid_argument _ -> ());
  (try
     P.set_range txn seg ~off:0 ~len:0;
     Alcotest.fail "empty range"
   with Invalid_argument _ -> ());
  P.abort txn

let test_helpers_roundtrip () =
  let b, seg = with_db () in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:16;
  P.write_u32 b.t seg ~off:0 0xcafe;
  P.write_u64 b.t seg ~off:8 77L;
  check_int "u32" 0xcafe (P.read_u32 b.t seg ~off:0);
  check_i64 "u64" 77L (P.read_u64 b.t seg ~off:8);
  P.commit txn

let test_stats_accounting () =
  let b, seg = with_db () in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:10;
  P.write b.t seg ~off:0 (Bytes.make 10 'x');
  P.commit txn;
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:10;
  P.abort txn;
  let s = P.stats b.t in
  check_int "begun" 2 s.begun;
  check_int "committed" 1 s.committed;
  check_int "aborts" 1 s.aborts;
  check_int "set_ranges" 2 s.set_ranges;
  check_int "undo bytes" 20 s.undo_bytes_logged;
  (* A snapshot does not move with the engine. *)
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:10;
  P.commit txn;
  check_int "snapshot keeps its begun" 2 s.begun;
  check_int "snapshot keeps its committed" 1 s.committed;
  check_int "engine moved on" 2 (P.stats b.t).committed

let test_epoch_write_is_single_packet () =
  let b, seg = with_db () in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:4;
  P.write b.t seg ~off:0 (Bytes.make 4 'x');
  (* 4-byte data = 1 packet, plus exactly 1 packet for the atomic
     commit point. *)
  check_int "2 packets" 2 (P.commit_packets txn);
  P.commit txn

(* Every engine plan is one NIC burst: a one-range eager commit at one
   mirror sends three — the undo record, the data, the fence. *)
let test_eager_commit_counts_three_bursts () =
  let b, seg = with_db () in
  let nic = Cluster.nic b.cluster in
  Sci.Nic.reset_counters nic;
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:64;
  P.write b.t seg ~off:0 (Bytes.make 64 'b');
  P.commit txn;
  check_int "undo + data + fence" 3 (Sci.Nic.counters nic).Sci.Nic.bursts

(* ------------------------------------------------------------------ *)
(* Recovery *)

let crash_primary b = ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error)

let test_recover_after_clean_commit () =
  let b, seg = with_db () in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:256;
  P.write b.t seg ~off:0 (Bytes.make 256 'C');
  P.commit txn;
  let expect = P.checksum b.t seg in
  crash_primary b;
  let t2 = P.recover ~cluster:b.cluster ~local:2 ~server:b.server () in
  let seg2 = Option.get (P.segment t2 "db") in
  check_i64 "post-commit state" expect (P.checksum t2 seg2);
  check_i64 "mirror consistent" (P.checksum t2 seg2) (P.mirror_checksum t2 seg2);
  check_bool "epoch advanced by recovery" true (P.epoch t2 > 2L)

(* Bulk copies allocate nothing per packet: mirroring and recovering a
   16 MB database costs the minor heap what a 1 MB one does. *)
let test_bulk_copies_allocate_flat () =
  let minor_words f =
    let w0 = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. w0
  in
  let cost size =
    let b = bed ~dram:(size + (4 lsl 20)) () in
    ignore (P.malloc b.t ~name:"db" ~size);
    let init = minor_words (fun () -> P.init_remote_db b.t) in
    crash_primary b;
    let recover =
      minor_words (fun () -> P.recover_replicated ~cluster:b.cluster ~local:2 ~servers:[ b.server ] ())
    in
    (init, recover)
  in
  let init1, recover1 = cost (1 lsl 20) and init16, recover16 = cost (16 lsl 20) in
  let flat name small large =
    check_bool
      (Printf.sprintf "%s: %.0f words at 16 MB vs %.0f at 1 MB" name large small)
      true
      (Float.abs (large -. small) <= 2000.)
  in
  flat "init_remote_db" init1 init16;
  flat "recover_replicated" recover1 recover16

(* Minor words one debit-credit transaction allocates on a one-mirror
   bed after a warm-up, untraced or into a memory sink.  The count is
   exact and machine-independent. *)
let dc_words_per_txn ?sink () =
  let bed = Harness.Testbed.make ~mirrors:1 () in
  Option.iter (P.set_sink bed.perseas) sink;
  let module W = Workloads.Debit_credit.Make (P.Engine) in
  let db = W.setup bed.perseas ~params:Workloads.Debit_credit.small_params in
  let rng = Rng.create 11 in
  for _ = 1 to 500 do
    W.transaction db rng
  done;
  let n = 2000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    W.transaction db rng
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Untraced, no observer work is done: the per-call spans are stamped
   only under a live sink, with no closure or argument list built while
   it is off, and the undo record is cut in place in the local log; a
   transaction alone in flight does no conflict check, its commit reads
   its runs off one interval list per segment, and each eager phase's
   plans are built once, priced at the mirror's hop count when they
   run.  The gate is the measured 904 words plus 5%.  The engine
   allocated 2 802 before the first two changes, 2 019 before the next
   two, and 1 699 before the last.  The traced count is printed beside
   it: the difference is what observing costs. *)
let test_untraced_allocation_gate () =
  let untraced = dc_words_per_txn () in
  let traced = dc_words_per_txn ~sink:(Trace.Sink.memory ()) () in
  Printf.printf "debit-credit minor words/txn: %.1f untraced, %.1f traced (observer %.1f)\n"
    untraced traced (traced -. untraced);
  let gate = 904. *. 1.05 in
  check_bool
    (Printf.sprintf "%.1f words/txn untraced (gate %.0f)" untraced gate)
    true (untraced <= gate)

(* The group path in dc-group-c8's shape (the perfbench workload, with
   a tenth of its accounts): 8 interleaved clients, group commit of 16,
   one mirror, minor words per committed transaction after a warm-up. *)
let group_words_per_txn () =
  let bed =
    Harness.Testbed.make ~config:{ P.default_config with group_commit = 16 } ~dram_mb:16
      ~mirrors:1 ()
  in
  let module W = Workloads.Debit_credit.Make (P.Engine) in
  let db =
    W.setup bed.perseas
      ~params:
        {
          Workloads.Debit_credit.scale = 1024;
          accounts_per_branch = 25;
          history_slots = 8192;
          skew = Uniform;
        }
  in
  let rng = Rng.create 97 in
  let spec =
    {
      Harness.Multi_client.prepare = (fun _ -> W.draw db rng);
      declare = (fun txn d -> W.declare db txn d);
      apply = (fun d -> W.apply db d);
    }
  in
  ignore (Harness.Multi_client.run bed.perseas ~clients:8 ~total:2000 spec);
  let w0 = Gc.minor_words () in
  let s = Harness.Multi_client.run bed.perseas ~clients:8 ~total:4000 spec in
  (Gc.minor_words () -. w0) /. float_of_int s.Harness.Multi_client.committed

(* The gate is the measured 933 words plus 5%: untraced, no span,
   closure or argument list is built per call.  Before that the same
   run allocated 1 310.1, and 2 879.7 before conflicts were checked
   through the line index and each flush built its runs from the
   members' cached exact runs. *)
let test_group_allocation_gate () =
  let words = group_words_per_txn () in
  Printf.printf "group debit-credit minor words/txn: %.1f\n" words;
  let gate = 933. *. 1.05 in
  check_bool
    (Printf.sprintf "%.1f words/txn on the group path (gate %.0f)" words gate)
    true (words <= gate)

(* Minor words one order-entry new-order transaction allocates at three
   mirrors, untraced, after a warm-up: oe-eager-3m's shape. *)
let oe_words_per_txn () =
  let bed = Harness.Testbed.make ~dram_mb:8 ~mirrors:3 () in
  let module W = Workloads.Order_entry.Make (P.Engine) in
  let db = W.setup bed.perseas ~params:Workloads.Order_entry.default_params in
  let rng = Rng.create 11 in
  for _ = 1 to 500 do
    W.transaction db rng
  done;
  let n = 2000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    W.transaction db rng
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Every eager phase — each undo record, the data propagation, the
   fence — is planned once and run on all three mirrors.  The gate is
   the measured 3 651 words plus 5%; the engine that planned each phase
   again for every mirror allocated 9 776. *)
let test_oe_allocation_gate () =
  let words = oe_words_per_txn () in
  Printf.printf "order-entry minor words/txn at three mirrors: %.1f\n" words;
  let gate = 3651. *. 1.05 in
  check_bool
    (Printf.sprintf "%.1f words/txn at three mirrors (gate %.0f)" words gate)
    true (words <= gate)

let test_recover_multiple_segments () =
  let b = bed () in
  let a = P.malloc b.t ~name:"alpha" ~size:512 in
  let c = P.malloc b.t ~name:"beta" ~size:1024 in
  P.write b.t a ~off:0 (Bytes.make 512 'a');
  P.write b.t c ~off:0 (Bytes.make 1024 'b');
  P.init_remote_db b.t;
  let ca = P.checksum b.t a and cb = P.checksum b.t c in
  crash_primary b;
  let t2 = P.recover ~cluster:b.cluster ~local:2 ~server:b.server () in
  check_int "two segments" 2 (List.length (P.segments t2));
  check_i64 "alpha" ca (P.checksum t2 (Option.get (P.segment t2 "alpha")));
  check_i64 "beta" cb (P.checksum t2 (Option.get (P.segment t2 "beta")))

let test_recovered_instance_supports_transactions () =
  let b, seg = with_db () in
  ignore seg;
  crash_primary b;
  let t2 = P.recover ~cluster:b.cluster ~local:2 ~server:b.server () in
  let seg2 = Option.get (P.segment t2 "db") in
  let txn = P.begin_transaction t2 in
  P.set_range txn seg2 ~off:0 ~len:8;
  P.write t2 seg2 ~off:0 (Bytes.make 8 'r');
  P.commit txn;
  check_i64 "mirror ok after recovered commit" (P.checksum t2 seg2) (P.mirror_checksum t2 seg2);
  (* And survives a second crash-recover cycle, back on the rebooted
     primary. *)
  ignore (Cluster.crash_node b.cluster 2 Cluster.Failure.Hardware_error);
  Cluster.restart_node b.cluster 0;
  let t3 = P.recover ~cluster:b.cluster ~local:0 ~server:b.server () in
  let seg3 = Option.get (P.segment t3 "db") in
  check Alcotest.string "second recovery sees the commit" "rrrrrrrr"
    (Bytes.to_string (P.read t3 seg3 ~off:0 ~len:8))

let test_recover_on_rebooted_primary () =
  let b, seg = with_db () in
  let expect = P.checksum b.t seg in
  crash_primary b;
  Cluster.restart_node b.cluster 0;
  let t2 = P.recover ~cluster:b.cluster ~local:0 ~server:b.server () in
  check_i64 "state back" expect (P.checksum t2 (Option.get (P.segment t2 "db")))

let test_recover_without_db_fails () =
  let clock = Clock.create () in
  let cluster =
    Cluster.create ~clock [ Cluster.spec "a"; Cluster.spec ~power_supply:1 "b" ]
  in
  let server = Netram.Server.create (Cluster.node cluster 1) in
  try
    ignore (P.recover ~cluster ~local:0 ~server ());
    Alcotest.fail "expected failure"
  with Failure _ -> ()

let test_remirror_after_mirror_death () =
  let b, seg = with_db () in
  let expect = P.checksum b.t seg in
  (* The mirror dies; re-mirror onto the spare node's fresh server. *)
  ignore (Cluster.crash_node b.cluster 1 Cluster.Failure.Hardware_error);
  let server2 = Netram.Server.create (Cluster.node b.cluster 2) in
  P.remirror b.t ~server:server2;
  check_i64 "local intact" expect (P.checksum b.t seg);
  check_i64 "new mirror in sync" expect (P.mirror_checksum b.t seg);
  (* Transactions keep working against the new mirror... *)
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:8;
  P.write b.t seg ~off:0 (Bytes.make 8 'm');
  P.commit txn;
  (* ...and the database survives a primary crash via the new mirror. *)
  crash_primary b;
  Cluster.restart_node b.cluster 0;
  let t2 = P.recover ~cluster:b.cluster ~local:0 ~server:server2 () in
  check Alcotest.string "recovered via new mirror" "mmmmmmmm"
    (Bytes.to_string (P.read t2 (Option.get (P.segment t2 "db")) ~off:0 ~len:8))

(* ------------------------------------------------------------------ *)
(* Crash atomicity: exhaustive and property-based                      *)

exception Injected

(* Run one transaction and crash after [cut] remote packets (counted
   across set_range undo pushes, commit data, and the epoch write);
   recover on the spare node and return the recovered checksum together
   with the pre/post oracles. *)
let crash_scenario ~ranges ~cut =
  let b, seg = with_db ~size:8192 () in
  let pre = P.checksum b.t seg in
  let sent = ref 0 in
  let txn = P.begin_transaction b.t in
  let hook () = if !sent >= cut then raise Injected else incr sent in
  P.set_packet_hook b.t (Some hook);
  let crashed =
    try
      List.iter
        (fun (off, len, fill) ->
          P.set_range txn seg ~off ~len;
          P.set_packet_hook b.t None;
          P.write b.t seg ~off (Bytes.make len fill);
          P.set_packet_hook b.t (Some hook))
        ranges;
      P.commit txn;
      false
    with Injected -> true
  in
  P.set_packet_hook b.t None;
  let post = P.checksum b.t seg in
  if crashed then begin
    crash_primary b;
    let t2 = P.recover ~cluster:b.cluster ~local:2 ~server:b.server () in
    let seg2 = Option.get (P.segment t2 "db") in
    let got = P.checksum t2 seg2 in
    let mirror = P.mirror_checksum t2 seg2 in
    (`Crashed (got, mirror), pre, post)
  end
  else (`Completed post, pre, post)

let test_crash_atomicity_exhaustive () =
  (* Two ranges, one crossing several buffers: enumerate every cut. *)
  let ranges = [ (100, 30, 'A'); (700, 200, 'B') ] in
  (* Generous upper bound on packets; once the txn completes, higher
     cuts are equivalent. *)
  let rec go cut =
    match crash_scenario ~ranges ~cut with
    | `Completed final, pre, _ ->
        check_bool "completed differs from pre" true (final <> pre)
    | `Crashed (got, mirror), pre, post ->
        if got <> pre && got <> post then
          Alcotest.failf "atomicity violated at cut %d" cut;
        check_i64 "recovered = mirror" mirror got;
        if cut < 64 then go (cut + 1)
  in
  go 0

let prop_crash_atomicity =
  QCheck.Test.make ~name:"crash at random packet yields pre- or post-state" ~count:120
    QCheck.(
      pair (int_bound 40)
        (list_of_size (Gen.int_range 1 4) (pair (int_bound 7000) (int_range 1 900))))
    (fun (cut, raw_ranges) ->
      let ranges =
        List.mapi (fun i (off, len) -> (min off (8192 - len), len, Char.chr (65 + i))) raw_ranges
      in
      match crash_scenario ~ranges ~cut with
      | `Completed _, _, _ -> true
      | `Crashed (got, mirror), pre, post -> (got = pre || got = post) && got = mirror)

let prop_commit_then_recover_is_post_state =
  QCheck.Test.make ~name:"crash after commit point preserves the transaction" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 3) (pair (int_bound 7000) (int_range 1 500)))
    (fun raw_ranges ->
      let ranges =
        List.mapi (fun i (off, len) -> (min off (8192 - len), len, Char.chr (97 + i))) raw_ranges
      in
      (* A cut beyond any possible packet count: transaction completes,
         then the node dies; recovery must land on the post-state. *)
      match crash_scenario ~ranges ~cut:100_000 with
      | `Completed post, _, post' -> post = post'
      | `Crashed _, _, _ -> false)

let test_crash_during_set_range_only () =
  (* Crash before commit even starts: recovery must give the pre-state
     (the undo records alone must not corrupt anything). *)
  for cut = 0 to 3 do
    match crash_scenario ~ranges:[ (0, 100, 'S') ] ~cut with
    | `Crashed (got, _), pre, _ -> check_i64 (Printf.sprintf "pre-state at cut %d" cut) pre got
    | `Completed _, _, _ -> Alcotest.fail "should have crashed during set_range"
  done

(* ------------------------------------------------------------------ *)
(* Archive: graceful shutdown to stable storage and cold restart       *)

let test_archive_roundtrip () =
  let b, seg = with_db () in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:128;
  P.write b.t seg ~off:0 (Bytes.make 128 'A');
  P.commit txn;
  let expect = P.checksum b.t seg in
  let device =
    Disk.Device.create ~clock:b.clock
      ~backend:(Disk.Device.Magnetic Disk.Device.default_geometry)
      ~capacity:(1 lsl 20)
  in
  let t0 = Clock.now b.clock in
  P.archive b.t device;
  check_bool "archive pays the disk" true (Clock.now b.clock - t0 > Time.ms 1.);
  (* Scheduled shutdown: the whole cluster goes dark. *)
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Power_outage);
  ignore (Cluster.crash_node b.cluster 1 Cluster.Failure.Power_outage);
  Cluster.restart_node b.cluster 0;
  Cluster.restart_node b.cluster 1;
  (* Cold start on the rebooted cluster from the archive. *)
  let server = Netram.Server.create (Cluster.node b.cluster 1) in
  let clients = [ Netram.Client.create ~cluster:b.cluster ~local:0 ~server ] in
  let t2 = P.restore_from_archive ~clients device in
  let seg2 = Option.get (P.segment t2 "db") in
  check_i64 "restored state" expect (P.checksum t2 seg2);
  check_bool "live again" true (P.remote_ready t2);
  (* And transactional again. *)
  let txn = P.begin_transaction t2 in
  P.set_range txn seg2 ~off:0 ~len:8;
  P.write t2 seg2 ~off:0 (Bytes.make 8 'z');
  P.commit txn;
  check_i64 "mirror ok" (P.checksum t2 seg2) (P.mirror_checksum t2 seg2)

let test_archive_rules () =
  let b, seg = with_db () in
  let device =
    Disk.Device.create ~clock:b.clock
      ~backend:(Disk.Device.Magnetic Disk.Device.default_geometry)
      ~capacity:(1 lsl 20)
  in
  (* No archive with an open transaction. *)
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:8;
  (try
     P.archive b.t device;
     Alcotest.fail "archive with open txn"
   with Failure _ -> ());
  P.abort txn;
  (* Restoring from a blank device fails cleanly. *)
  let blank =
    Disk.Device.create ~clock:b.clock
      ~backend:(Disk.Device.Magnetic Disk.Device.default_geometry)
      ~capacity:(1 lsl 20)
  in
  let server = Netram.Server.create (Cluster.node b.cluster 2) in
  let clients = [ Netram.Client.create ~cluster:b.cluster ~local:0 ~server ] in
  try
    ignore (P.restore_from_archive ~clients blank);
    Alcotest.fail "restore from blank device"
  with Failure _ -> ()

(* Two independent databases sharing one memory server, isolated by
   namespace. *)
let test_namespaces_share_a_server () =
  let b = bed () in
  let t_bank = b.t in
  let client2 = Netram.Client.create ~cluster:b.cluster ~local:0 ~server:b.server in
  let t_shop = P.init ~config:{ P.default_config with namespace = "shop" } client2 in
  let bank_seg = P.malloc t_bank ~name:"table" ~size:512 in
  let shop_seg = P.malloc t_shop ~name:"table" ~size:512 in
  P.write t_bank bank_seg ~off:0 (Bytes.make 512 'b');
  P.write t_shop shop_seg ~off:0 (Bytes.make 512 's');
  P.init_remote_db t_bank;
  P.init_remote_db t_shop;
  let commit_one t seg fill =
    let txn = P.begin_transaction t in
    P.set_range txn seg ~off:0 ~len:8;
    P.write t seg ~off:0 (Bytes.make 8 fill);
    P.commit txn
  in
  commit_one t_bank bank_seg 'B';
  commit_one t_shop shop_seg 'S';
  (* Crash the primary: each database recovers under its own namespace
     with its own contents. *)
  crash_primary b;
  let bank2 =
    P.recover ~config:P.default_config ~cluster:b.cluster ~local:2 ~server:b.server ()
  in
  let shop2 =
    P.recover
      ~config:{ P.default_config with namespace = "shop" }
      ~cluster:b.cluster ~local:2 ~server:b.server ()
  in
  check Alcotest.string "bank data" "BBBBBBBB"
    (Bytes.to_string (P.read bank2 (Option.get (P.segment bank2 "table")) ~off:0 ~len:8));
  check Alcotest.string "shop data" "SSSSSSSS"
    (Bytes.to_string (P.read shop2 (Option.get (P.segment shop2 "table")) ~off:0 ~len:8))

(* The default namespace rejects a second database on the same server. *)
let test_namespace_collision_detected () =
  let b = bed () in
  ignore b.t;
  let client2 = Netram.Client.create ~cluster:b.cluster ~local:0 ~server:b.server in
  try
    ignore (P.init client2);
    Alcotest.fail "expected name collision"
  with Failure _ -> ()

let suite =
  [
    ("init mirrors the whole database", `Quick, test_init_mirrors_whole_db);
    ("malloc naming and lifecycle rules", `Quick, test_malloc_rules);
    ("transaction state rules", `Quick, test_transaction_rules);
    ("strict update enforcement", `Quick, test_strict_updates_enforced);
    ("commit updates the mirror", `Quick, test_commit_updates_mirror);
    ("abort restores locally without remote traffic", `Quick, test_abort_restores_locally);
    ("multi-range abort", `Quick, test_multiple_ranges_and_overlap_abort);
    ("undo overflow", `Quick, test_undo_overflow);
    ("undo overflow mid-transaction", `Quick, test_undo_overflow_mid_transaction);
    ( "a recovered engine stays inside the exports it adopts",
      `Quick,
      test_recovered_engine_stays_in_its_exports );
    ("set_range validation", `Quick, test_set_range_validation);
    ("u32/u64 helpers", `Quick, test_helpers_roundtrip);
    ("statistics accounting", `Quick, test_stats_accounting);
    ("commit point is a single packet", `Quick, test_epoch_write_is_single_packet);
    ("an eager commit counts three bursts", `Quick, test_eager_commit_counts_three_bursts);
    ("recover after clean commit", `Quick, test_recover_after_clean_commit);
    ("recover multiple segments", `Quick, test_recover_multiple_segments);
    ("bulk copies allocate flat in database size", `Quick, test_bulk_copies_allocate_flat);
    ( "untraced transactions stay within the allocation gate",
      `Quick,
      test_untraced_allocation_gate );
    ( "three-mirror order-entry stays within its allocation gate",
      `Quick,
      test_oe_allocation_gate );
    ( "group commit stays within its allocation gate",
      `Quick,
      test_group_allocation_gate );
    ("recovered instance runs transactions", `Quick, test_recovered_instance_supports_transactions);
    ("recover on rebooted primary", `Quick, test_recover_on_rebooted_primary);
    ("recover without a database fails", `Quick, test_recover_without_db_fails);
    ("remirror after mirror death", `Quick, test_remirror_after_mirror_death);
    ("crash atomicity at every cut point", `Slow, test_crash_atomicity_exhaustive);
    QCheck_alcotest.to_alcotest prop_crash_atomicity;
    QCheck_alcotest.to_alcotest prop_commit_then_recover_is_post_state;
    ("crash during set_range keeps pre-state", `Quick, test_crash_during_set_range_only);
    ("archive and cold restart", `Quick, test_archive_roundtrip);
    ("archive rules", `Quick, test_archive_rules);
    ("namespaces share a server", `Quick, test_namespaces_share_a_server);
    ("namespace collision detected", `Quick, test_namespace_collision_detected);
  ]
