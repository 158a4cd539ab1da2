(* Fuzzy checkpoints: unit tests for the take/truncate lifecycle, torn
   slots, target loss, the bounded retired-epoch table, post-truncation
   incremental recruiting — plus the QCheck differential oracle pitting
   recover-from-checkpoint against plain undo-replay recovery from the
   same crash, and the crash sweeps over an in-progress checkpoint. *)

open Sim
module P = Perseas
module Ckpt = Perseas.Checkpoint
module Crashpoint = Harness.Crashpoint

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_i64 = check Alcotest.int64

type bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  servers : Netram.Server.t list; (* mirrors, node ids 1..k *)
  ckpt_server : Netram.Server.t; (* node k+1 *)
  ckpt_node : int;
  spare : int; (* node k+2, no server *)
  t : P.t;
}

(* Primary on node 0, [k] mirrors on 1..k, the checkpoint target's node
   at k+1, a free spare last — independent power supplies throughout. *)
let bed ?(config = P.default_config) ?(k = 1) () =
  let clock = Clock.create () in
  let dram = 4 * 1024 * 1024 in
  let names =
    ("primary" :: List.init k (Printf.sprintf "mirror%d")) @ [ "ckpt"; "spare" ]
  in
  let specs = List.mapi (fun i n -> Cluster.spec ~dram_size:dram ~power_supply:i n) names in
  let cluster = Cluster.create ~clock specs in
  let servers = List.init k (fun i -> Netram.Server.create (Cluster.node cluster (i + 1))) in
  let clients = List.map (fun server -> Netram.Client.create ~cluster ~local:0 ~server) servers in
  let t = P.init_replicated ~config clients in
  {
    clock;
    cluster;
    servers;
    ckpt_server = Netram.Server.create (Cluster.node cluster (k + 1));
    ckpt_node = k + 1;
    spare = k + 2;
    t;
  }

let seg_size = 4096

let with_db ?config ?k () =
  let b = bed ?config ?k () in
  List.iter
    (fun name ->
      let seg = P.malloc b.t ~name ~size:seg_size in
      let salt = String.length name * 97 in
      P.write b.t seg ~off:0 (Bytes.init seg_size (fun i -> Char.chr ((i * 13 + salt) land 0xff))))
    [ "x"; "y" ];
  P.init_remote_db b.t;
  b

let seg b name = Option.get (P.segment b.t name)

let commit_fill b name ~off fill =
  let s = seg b name in
  let txn = P.begin_transaction b.t in
  P.set_range txn s ~off ~len:128;
  P.write b.t s ~off (Bytes.make 128 fill);
  P.commit txn

let signature t =
  List.sort compare (List.map (fun s -> (P.segment_name s, P.checksum t s)) (P.segments t))

(* ------------------------------------------------------------------ *)
(* take / truncation / stats                                           *)

let test_take_truncates () =
  let b = with_db () in
  P.Checkpoint.set_ram_target b.t ~server:b.ckpt_server;
  commit_fill b "x" ~off:64 'a';
  commit_fill b "y" ~off:64 'b';
  let hwm_before = (P.stats b.t).P.undo_hwm_bytes in
  check_bool "commits grew the undo log" true (hwm_before > 0);
  let cut, truncated = Ckpt.take b.t in
  check_i64 "cut is the commit point" (P.epoch b.t) cut;
  check_bool "undo bytes were reclaimed" true (truncated > 0);
  let st = P.stats b.t in
  check_int "one checkpoint taken" 1 st.P.checkpoints_taken;
  check_int "truncation accounted" truncated st.P.log_truncated_bytes;
  check_int "high-water mark reset" 0 st.P.undo_hwm_bytes;
  check_bool "whole database shipped" true (st.P.checkpoint_bytes >= 2 * seg_size);
  check_i64 "generation published" 1L (Ckpt.generation b.t);
  (* The engine stays fully usable after truncation. *)
  commit_fill b "x" ~off:512 'c';
  check Alcotest.(list (pair string int)) "mirrors clean" [] (P.verify_mirrors b.t)

let test_lifecycle_guards () =
  let b = with_db () in
  Alcotest.check_raises "take without a target"
    (Failure "Perseas.Checkpoint.start: no checkpoint target") (fun () -> ignore (Ckpt.take b.t));
  (* A target on the primary's own node protects nothing. *)
  let self = Netram.Server.create (Cluster.node b.cluster 0) in
  Alcotest.check_raises "refuses a local-node target"
    (Invalid_argument "Perseas.Checkpoint.set_ram_target: target must live on a remote node")
    (fun () -> Ckpt.set_ram_target b.t ~server:self);
  let empty = bed () in
  P.init_remote_db empty.t;
  Alcotest.check_raises "nothing to checkpoint"
    (Invalid_argument "Perseas.Checkpoint.set_ram_target: the database has no segments")
    (fun () -> Ckpt.set_ram_target empty.t ~server:empty.ckpt_server);
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  Ckpt.start b.t;
  Alcotest.check_raises "no concurrent checkpoints"
    (Failure "Perseas.Checkpoint.start: checkpoint already in flight") (fun () -> Ckpt.start b.t);
  Alcotest.check_raises "step wants a positive budget"
    (Invalid_argument "Perseas.Checkpoint.step: budget must be positive") (fun () ->
      ignore (Ckpt.step b.t ~budget:0));
  Ckpt.abandon b.t;
  check_bool "abandon clears the in-flight state" false (Ckpt.in_flight b.t);
  check_i64 "abandon publishes nothing" 0L (Ckpt.generation b.t)

(* ------------------------------------------------------------------ *)
(* Fuzzy cut: commits landing mid-checkpoint are in the snapshot        *)

let test_fuzzy_cut_consistent () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  commit_fill b "x" ~off:64 'a';
  Ckpt.start b.t;
  commit_fill b "x" ~off:1024 'm' (* lands after the slot pass begins *);
  let done_ = Ckpt.step b.t ~budget:2048 in
  check_bool "2 KiB budget cannot finish 8 KiB" false done_;
  commit_fill b "y" ~off:1024 'n';
  ignore (Ckpt.finalize b.t);
  let committed = signature b.t in
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 =
    P.recover_replicated ~config:(P.config b.t) ~checkpoint:(P.Ram_source b.ckpt_server)
      ~cluster:b.cluster ~local:b.ckpt_node ~servers:b.servers ()
  in
  check
    Alcotest.(list (pair string int64))
    "restored image equals the committed one" committed (signature t2);
  check Alcotest.(list (pair string int)) "mirrors clean" [] (P.verify_mirrors t2)

let test_open_txn_scrubbed_out () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  commit_fill b "x" ~off:64 'a';
  (* An uncommitted transaction is dirty in the local image while the
     snapshot ships; its bytes must be scrubbed back to before-images. *)
  let s = seg b "x" in
  let txn = P.begin_transaction b.t in
  P.set_range txn s ~off:2048 ~len:128;
  P.write b.t s ~off:2048 (Bytes.make 128 '!');
  ignore (Ckpt.take b.t);
  P.abort txn;
  let committed = signature b.t in
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 =
    P.recover_replicated ~config:(P.config b.t) ~checkpoint:(P.Ram_source b.ckpt_server)
      ~cluster:b.cluster ~local:b.ckpt_node ~servers:b.servers ()
  in
  check
    Alcotest.(list (pair string int64))
    "no uncommitted byte survived" committed (signature t2)

(* ------------------------------------------------------------------ *)
(* Torn slots fall back                                                *)

let test_torn_slot_falls_back () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  commit_fill b "x" ~off:64 'a';
  ignore (Ckpt.take b.t) (* generation 1: valid *);
  commit_fill b "y" ~off:64 'b';
  Ckpt.start b.t;
  ignore (Ckpt.step b.t ~budget:1024) (* generation 2: torn — never finalized *);
  let committed = signature b.t in
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 =
    P.recover_replicated ~config:(P.config b.t) ~checkpoint:(P.Ram_source b.ckpt_server)
      ~cluster:b.cluster ~local:b.ckpt_node ~servers:b.servers ()
  in
  check
    Alcotest.(list (pair string int64))
    "torn slot never trusted" committed (signature t2);
  check Alcotest.(list (pair string int)) "mirrors clean" [] (P.verify_mirrors t2)

(* ------------------------------------------------------------------ *)
(* Target loss: typed error, engine keeps committing                    *)

let test_target_lost () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  commit_fill b "x" ~off:64 'a';
  ignore (Cluster.crash_node b.cluster b.ckpt_node Cluster.Failure.Hardware_error);
  (match Ckpt.take b.t with
  | _ -> Alcotest.fail "expected Target_lost"
  | exception Ckpt.Target_lost _ -> ());
  check_bool "target dropped" false (Ckpt.target_set b.t);
  check_bool "nothing left in flight" false (Ckpt.in_flight b.t);
  (* Checkpointing is an optimisation: commits must keep flowing. *)
  commit_fill b "y" ~off:64 'b';
  check Alcotest.(list (pair string int)) "mirrors clean" [] (P.verify_mirrors b.t);
  (* A replacement target starts over from generation 0. *)
  let fresh = Netram.Server.create (Cluster.node b.cluster b.spare) in
  Ckpt.set_ram_target b.t ~server:fresh;
  let _cut, _ = Ckpt.take b.t in
  check_i64 "fresh target, fresh generations" 1L (Ckpt.generation b.t)

(* ------------------------------------------------------------------ *)
(* Bounded retired-epoch table (the independent satellite fix)          *)

let test_retired_table_bounded () =
  let config = { P.default_config with P.retired_limit = 2 } in
  let b = with_db ~config ~k:5 () in
  commit_fill b "x" ~off:64 'a';
  (* Four distinct mirrors leave, one at a time: the old engine grew a
     retired entry per departure forever; the cap must hold it at 2,
     evicting the oldest epoch first. *)
  let paused = [ 0; 1; 2; 3 ] in
  List.iteri
    (fun i idx ->
      Netram.Server.pause (List.nth b.servers idx);
      commit_fill b "x" ~off:(128 * (i + 2)) (Char.chr (Char.code 'b' + i));
      check_bool
        (Printf.sprintf "cap holds after loss %d" (i + 1))
        true
        (P.retired_count b.t <= 2))
    paused;
  check_int "exactly the cap survives" 2 (P.retired_count b.t);
  (* The oldest retiree was evicted: its comeback is a full copy.  The
     newest is still remembered: its comeback is incremental. *)
  Netram.Server.resume (List.nth b.servers 0);
  let r_old = P.recruit_mirror b.t ~server:(List.nth b.servers 0) in
  check_bool "evicted retiree falls back to a full copy" true (r_old.P.mode = P.Full);
  Netram.Server.resume (List.nth b.servers 3);
  let r_new = P.recruit_mirror b.t ~server:(List.nth b.servers 3) in
  check_bool "remembered retiree resyncs incrementally" true (r_new.P.mode = P.Incremental);
  check Alcotest.(list (pair string int)) "mirrors clean" [] (P.verify_mirrors b.t)

let test_retired_limit_validated () =
  Alcotest.check_raises "retired_limit must be positive"
    (Invalid_argument "Perseas.init: retired_limit must be >= 1") (fun () ->
      ignore (with_db ~config:{ P.default_config with P.retired_limit = 0 } ()))

(* ------------------------------------------------------------------ *)
(* Post-truncation incremental recruit (Supervisor path)                *)

let test_incremental_recruit_after_truncation () =
  let b = with_db ~k:2 () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  commit_fill b "x" ~off:64 'a';
  (* Mirror 1 leaves mid-life... *)
  Netram.Server.pause (List.nth b.servers 1);
  commit_fill b "x" ~off:512 'b';
  check_int "loss noticed" 1 (P.mirror_count b.t);
  (* ...a checkpoint truncates the dirty-range log it will need... *)
  ignore (Ckpt.take b.t);
  commit_fill b "y" ~off:512 'c';
  (* ...and its comeback must still be provably-safe incremental: the
     truncated entries live on in the checkpoint summary. *)
  Netram.Server.resume (List.nth b.servers 1);
  let r = P.recruit_mirror b.t ~server:(List.nth b.servers 1) in
  check_bool "incremental despite truncation" true (r.P.mode = P.Incremental);
  check_bool "and cheaper than a full copy" true (r.P.bytes_copied < r.P.full_bytes);
  check Alcotest.(list (pair string int)) "resynced mirror is clean" []
    (P.verify_mirrors b.t)

(* ------------------------------------------------------------------ *)
(* Dirty-log overflow: past 4096 entries the oldest are dropped         *)

(* One single-range commit per call, cycling over the first 32 lines of
   segment x: each adds exactly one dirty-log entry. *)
let overflow_log b = for i = 0 to 4100 do commit_fill b "x" ~off:(i mod 32 * 128) 'o' done

let test_overflow_forces_full_recruit () =
  let b = with_db ~k:2 () in
  let leaver = List.nth b.servers 1 in
  P.detach_mirror b.t ~node_id:2;
  overflow_log b;
  let r = P.recruit_mirror b.t ~server:leaver in
  check_bool "gone longer than the log reaches: full copy" true (r.P.mode = P.Full);
  check_int "whole database copied" r.P.full_bytes r.P.bytes_copied;
  check Alcotest.(list (pair string int)) "mirrors clean" [] (P.verify_mirrors b.t)

let test_recruit_after_overflow_is_incremental () =
  let b = with_db ~k:2 () in
  let leaver = List.nth b.servers 1 in
  overflow_log b;
  P.detach_mirror b.t ~node_id:2;
  (* Dirtied since it left: x[64,192) + x[128,256) = x[64,256), and
     y[1024,1152) — 192 + 128 bytes. *)
  commit_fill b "x" ~off:64 'p';
  commit_fill b "x" ~off:128 'q';
  commit_fill b "y" ~off:1024 'r';
  let r = P.recruit_mirror b.t ~server:leaver in
  check_bool "left after the floor rose: incremental" true (r.P.mode = P.Incremental);
  check_int "copies the union of the ranges dirtied since" (192 + 128) r.P.bytes_copied;
  check Alcotest.(list (pair string int)) "mirrors clean" [] (P.verify_mirrors b.t)

(* An ex-mirror whose node rebooted lost its exports: its recruit falls
   back to a full copy through the same attach path, and the copy is
   scrubbed of an open transaction's uncommitted bytes. *)
let test_rebooted_retiree_full_resync () =
  let b = with_db ~k:2 () in
  ignore (Cluster.crash_node b.cluster 2 Cluster.Failure.Software_error);
  commit_fill b "x" ~off:64 'a';
  check_int "loss noticed" 1 (P.mirror_count b.t);
  check_int "the leaver is remembered" 1 (P.retired_count b.t);
  Cluster.restart_node b.cluster 2;
  let s = seg b "y" in
  let txn = P.begin_transaction b.t in
  P.set_range txn s ~off:1024 ~len:128;
  P.write b.t s ~off:1024 (Bytes.make 128 '!');
  let r = P.recruit_mirror b.t ~server:(Netram.Server.create (Cluster.node b.cluster 2)) in
  check_bool "rebooted retiree falls back to a full copy" true (r.P.mode = P.Full);
  check_int "whole database copied" r.P.full_bytes r.P.bytes_copied;
  check_int "factor restored" 2 (P.mirror_count b.t);
  P.abort txn;
  check Alcotest.(list (pair string int)) "joiner holds committed bytes only" []
    (P.verify_mirrors b.t)

let test_overflow_reships_whole_images () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  Ckpt.start b.t;
  overflow_log b;
  let bytes0 = (P.stats b.t).P.checkpoint_bytes in
  ignore (Ckpt.finalize b.t);
  (* The snapshot pass ships both images, then the overflowed log
     cannot say what changed since the start: both are shipped again. *)
  check_int "images shipped twice" (4 * seg_size) ((P.stats b.t).P.checkpoint_bytes - bytes0);
  let committed = signature b.t in
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 =
    P.recover_replicated ~config:(P.config b.t) ~checkpoint:(P.Ram_source b.ckpt_server)
      ~cluster:b.cluster ~local:b.ckpt_node ~servers:b.servers ()
  in
  check
    Alcotest.(list (pair string int64))
    "checkpoint recovery restores the committed image" committed (signature t2)

(* ------------------------------------------------------------------ *)
(* Background checkpointer                                              *)

let test_auto_checkpoints () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  let events = Events.create b.clock in
  Ckpt.auto b.t ~events ~interval:(Time.us 50.) ~until:(Time.ms 10.) ~budget:4096;
  for i = 0 to 39 do
    commit_fill b "x" ~off:(64 * ((i mod 8) + 1)) (Char.chr (Char.code 'a' + (i mod 26)));
    Clock.advance b.clock (Time.us 50.);
    Events.run_due events
  done;
  let st = P.stats b.t in
  check_bool "checkpoints published in the background" true (st.P.checkpoints_taken >= 1);
  check_bool "and the log was truncated" true (st.P.log_truncated_bytes > 0);
  check Alcotest.(list (pair string int)) "mirrors clean" [] (P.verify_mirrors b.t)

(* ------------------------------------------------------------------ *)
(* Churn integration: the supervisor heals across log truncations       *)

let test_churn_with_checkpoints () =
  (* Full snapshots every 4 ms of virtual time: frequent enough for
     several truncations inside the 40 ms horizon, spaced enough that
     shipping the whole database does not crowd out the workload. *)
  let params =
    { Harness.Churn.default_params with checkpoint_interval = Some (Time.ms 4.) }
  in
  let r = Harness.Churn.run ~params () in
  Harness.Churn.check r (* zero committed-data loss, mirrors clean *);
  let st = r.Harness.Churn.stats in
  check_bool "checkpoints fired under churn" true (st.P.checkpoints_taken >= 1);
  check_bool "and truncated the log" true (st.P.log_truncated_bytes > 0)

(* ------------------------------------------------------------------ *)
(* Parallel recovery cost model                                         *)

let test_helpers_cut_recovery_time () =
  let recovery ~helpers =
    let b = with_db () in
    commit_fill b "x" ~off:64 'a';
    ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
    let t0 = Clock.now b.clock in
    let t2 =
      P.recover_replicated ~config:(P.config b.t) ~helpers ~cluster:b.cluster ~local:b.spare
        ~servers:b.servers ()
    in
    (signature t2, Time.to_us (Clock.now b.clock - t0))
  in
  let sig1, solo = recovery ~helpers:[] in
  let sig2, helped = recovery ~helpers:[ 1 ] in
  check Alcotest.(list (pair string int64)) "helpers change time, not bytes" sig1 sig2;
  check_bool "a helper stream shortens recovery" true (helped < solo)

(* A database whose bytes sit nearly all in one segment still spreads
   over the streams: each read goes to the least-loaded stream, and a
   read larger than one stream's share is cut into shares. *)
let test_helper_splits_a_dominant_segment () =
  let recovery ~helpers =
    let b = bed () in
    List.iter
      (fun (name, size) -> P.write b.t (P.malloc b.t ~name ~size) ~off:0 (Bytes.make size 'd'))
      [ ("big", 512 * 1024); ("small", 4096) ];
    P.init_remote_db b.t;
    ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
    let t0 = Clock.now b.clock in
    let t2 =
      P.recover_replicated ~helpers ~cluster:b.cluster ~local:b.spare ~servers:b.servers ()
    in
    (signature t2, Time.to_us (Clock.now b.clock - t0))
  in
  let sig1, solo = recovery ~helpers:[] in
  let sig2, helped = recovery ~helpers:[ 1 ] in
  check Alcotest.(list (pair string int64)) "helpers change time, not bytes" sig1 sig2;
  check_bool
    (Printf.sprintf "one helper: %.0f -> %.0f us (bar: >= 1.8x faster)" solo helped)
    true
    (solo /. helped >= 1.8)

(* ------------------------------------------------------------------ *)
(* Chunk adoption: recovery reads only what changed after the cut       *)

let recover_in_place b =
  P.recover_replicated ~config:(P.config b.t) ~checkpoint:(P.Ram_source b.ckpt_server)
    ~cluster:b.cluster ~local:b.ckpt_node ~servers:b.servers ()

let commit_u64 b name ~off v =
  let s = seg b name in
  let txn = P.begin_transaction b.t in
  P.set_range txn s ~off ~len:8;
  P.write_u64 b.t s ~off v;
  P.commit txn

let test_adopts_all_but_one_chunk () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  commit_fill b "x" ~off:64 'a';
  commit_fill b "y" ~off:2048 'b';
  ignore (Ckpt.take b.t);
  commit_u64 b "x" ~off:1500 0x1122334455667788L;
  let committed = signature b.t in
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let nic = Cluster.nic b.cluster in
  let read0 = (Sci.Nic.counters nic).Sci.Nic.bytes_read in
  let t2 = recover_in_place b in
  check
    Alcotest.(list (pair string int64))
    "adopted image equals the committed one" committed (signature t2);
  (* The mirror's metadata header (the candidate probe), its metadata,
     one 4 KiB block of the dirty-chunk list, the one 4 KiB undo fetch
     the repair scan walks, and the single chunk written after the cut:
     every other chunk is adopted where it lies. *)
  let meta = P.Layout.meta_size ~max_segments:(P.config b.t).P.max_segments in
  check_int "bytes read: probe + meta + list block + undo prefix + one chunk"
    (P.Layout.meta_header_size + meta + 4096 + 4096 + P.Layout.chunk_bytes)
    ((Sci.Nic.counters nic).Sci.Nic.bytes_read - read0);
  check Alcotest.(list (pair string int)) "mirrors clean" [] (P.verify_mirrors t2)

(* The rebuilt engine appends no entries, so the recovery that found a
   list base set must zero it: otherwise a second recovery from the same
   slot would trust a list that missed the commits in between. *)
let test_second_recovery_ignores_unmaintained_entries () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  ignore (Ckpt.take b.t);
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 =
    P.recover_replicated ~config:(P.config b.t) ~checkpoint:(P.Ram_source b.ckpt_server)
      ~cluster:b.cluster ~local:b.spare ~servers:b.servers ()
  in
  let s = Option.get (P.segment t2 "x") in
  let txn = P.begin_transaction t2 in
  P.set_range txn s ~off:1024 ~len:128;
  P.write t2 s ~off:1024 (Bytes.make 128 's');
  P.commit txn;
  let committed = signature t2 in
  ignore (Cluster.crash_node b.cluster b.spare Cluster.Failure.Software_error);
  let t3 = recover_in_place b in
  check
    Alcotest.(list (pair string int64))
    "second recovery keeps the commit made after the first" committed (signature t3)

(* A slot cut before the list's base is never adopted: the list does not
   name the chunks committed between that cut and the base.  The first
   target's slot survives a clear_target and a commit; the second
   install keeps no list until its own first checkpoint, whose base
   then lies past the first slot's cut. *)
let earlier_install_slot_ignored ~take_second () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  ignore (Ckpt.take b.t);
  Ckpt.clear_target b.t;
  commit_fill b "x" ~off:1024 'c';
  Ckpt.set_ram_target b.t ~server:(Netram.Server.create (Cluster.node b.cluster b.spare));
  if take_second then ignore (Ckpt.take b.t);
  commit_fill b "y" ~off:64 'd';
  let committed = signature b.t in
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  check
    Alcotest.(list (pair string int64))
    "recovered with the first target's slot: committed image" committed
    (signature (recover_in_place b))

let test_earlier_install_slot_ignored () = earlier_install_slot_ignored ~take_second:false ()
let test_slot_before_base_ignored () = earlier_install_slot_ignored ~take_second:true ()

(* A full list takes no more entries and names nothing reliably: the
   commit after it fills is not listed, and recovery must not adopt.
   Each commit names a chunk of its own, two apart so no runs merge. *)
let test_full_list_adopts_nothing () =
  let b = bed () in
  let big = P.malloc b.t ~name:"big" ~size:(640 * 1024) in
  P.init_remote_db b.t;
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  ignore (Ckpt.take b.t);
  let put i =
    let off = 2 * i * P.Layout.chunk_bytes in
    let txn = P.begin_transaction b.t in
    P.set_range txn big ~off ~len:8;
    P.write_u64 b.t big ~off (Int64.of_int (i + 1));
    P.commit txn
  in
  for i = 0 to P.Layout.dirty_capacity do
    put i
  done;
  let committed = signature b.t in
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  check
    Alcotest.(list (pair string int64))
    "recovered past a full list: committed image" committed
    (signature (recover_in_place b))

(* Observers never change a recovery: a counting hook and a trace sink
   walk every plan packet by packet, yet bytes, clock and NIC counters
   end where the bulk path ends — across an in-place adoption whose
   chunk reads are dealt to two fetch streams. *)
let test_observed_recovery_agrees () =
  let recovery observe =
    let b = with_db () in
    Ckpt.set_ram_target b.t ~server:b.ckpt_server;
    ignore (Ckpt.take b.t);
    commit_fill b "x" ~off:1024 'o';
    commit_fill b "y" ~off:64 'p';
    ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
    let nic = Cluster.nic b.cluster in
    Sci.Nic.reset_counters nic;
    let t0 = Clock.now b.clock in
    let hook, sink =
      match observe with
      | `Bare -> (None, None)
      | `Hook -> (Some ignore, None)
      | `Sink -> (None, Some (Trace.Sink.memory ()))
    in
    let t2 =
      P.recover_replicated ~config:(P.config b.t) ?hook ?sink
        ~checkpoint:(P.Ram_source b.ckpt_server) ~helpers:[ b.spare ] ~cluster:b.cluster
        ~local:b.ckpt_node ~servers:b.servers ()
    in
    (signature t2, Clock.now b.clock - t0, Sci.Nic.counters nic)
  in
  let bare = recovery `Bare in
  check_bool "hooked recovery agrees" true (recovery `Hook = bare);
  check_bool "observed recovery agrees" true (recovery `Sink = bare)

(* A slot is adopted only where it lies: recovering on any other node,
   the checkpoint changes nothing — the same bytes read, in the same
   virtual time, as the same recovery without it. *)
let test_slot_elsewhere_changes_nothing () =
  let recovery checkpoint =
    let b = with_db () in
    Ckpt.set_ram_target b.t ~server:b.ckpt_server;
    ignore (Ckpt.take b.t);
    commit_fill b "x" ~off:1024 'r';
    let committed = signature b.t in
    ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
    let nic = Cluster.nic b.cluster in
    Sci.Nic.reset_counters nic;
    let t0 = Clock.now b.clock in
    let t2 =
      P.recover_replicated ~config:(P.config b.t)
        ?checkpoint:(if checkpoint then Some (P.Ram_source b.ckpt_server) else None)
        ~cluster:b.cluster ~local:b.spare ~servers:b.servers ()
    in
    check Alcotest.(list (pair string int64)) "committed image" committed (signature t2);
    ((Sci.Nic.counters nic).Sci.Nic.bytes_read, Time.to_ns (Clock.now b.clock - t0))
  in
  let bytes, ns = recovery false in
  let bytes', ns' = recovery true in
  check_int "same bytes read" bytes bytes';
  check_int "same virtual time (ns)" ns ns'

(* Overwrite the epoch of entry [pos] in [server]'s dirty-chunk list. *)
let forge_entry_epoch server ~pos v =
  let h = Option.get (Netram.Server.lookup server ~name:(P.Layout.dirty_list_name ~ns:"perseas")) in
  Mem.Image.write_u64
    (Cluster.Node.dram (Netram.Server.node server))
    (Netram.Remote_segment.base h + (pos * P.Layout.dirty_entry_size))
    v

(* A joiner whose list missed a post-cut commit would let recovery
   adopt that chunk's stale checkpoint bytes. *)
let test_full_resync_joiner_gets_entries () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  ignore (Ckpt.take b.t);
  commit_fill b "x" ~off:1024 'j';
  let joiner = Netram.Server.create (Cluster.node b.cluster b.spare) in
  P.attach_mirror b.t ~server:joiner;
  let committed = signature b.t in
  ignore (Cluster.crash_node b.cluster 1 Cluster.Failure.Hardware_error);
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 =
    P.recover_replicated ~config:(P.config b.t) ~checkpoint:(P.Ram_source b.ckpt_server)
      ~cluster:b.cluster ~local:b.ckpt_node ~servers:[ joiner ] ()
  in
  check
    Alcotest.(list (pair string int64))
    "recovered from the joiner: committed image" committed (signature t2)

let test_incremental_joiner_gets_entries () =
  let b = with_db ~k:2 () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  let leaver = List.nth b.servers 1 in
  P.detach_mirror b.t ~node_id:2;
  ignore (Ckpt.take b.t);
  commit_fill b "y" ~off:3072 'k';
  let r = P.recruit_mirror b.t ~server:leaver in
  check_bool "recruited incrementally" true (r.P.mode = P.Incremental);
  let committed = signature b.t in
  ignore (Cluster.crash_node b.cluster 1 Cluster.Failure.Hardware_error);
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 =
    P.recover_replicated ~config:(P.config b.t) ~checkpoint:(P.Ram_source b.ckpt_server)
      ~cluster:b.cluster ~local:b.ckpt_node ~servers:[ leaver ] ()
  in
  check
    Alcotest.(list (pair string int64))
    "recovered from the returner: committed image" committed (signature t2)

(* Teeth: an entry tagged with the cut ends the list early, as a
   missing store would leave it, and recovery adopts the checkpoint's
   stale chunk — the image the tests above compare against would catch
   it. *)
let test_stale_entry_restores_stale_bytes () =
  let b = with_db () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  let cut, _ = Ckpt.take b.t in
  let before = signature b.t in
  commit_fill b "x" ~off:1024 't';
  let committed = signature b.t in
  forge_entry_epoch (List.hd b.servers) ~pos:0 cut;
  ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
  let t2 = recover_in_place b in
  check_bool "the committed image is lost" true (signature t2 <> committed);
  check
    Alcotest.(list (pair string int64))
    "the stale checkpoint chunk came back" before (signature t2)

(* ------------------------------------------------------------------ *)
(* QCheck differential oracle: checkpoint recovery vs plain replay      *)

(* Deterministic pseudo-random stream (QCheck shrinks the seed, the
   stream derives everything else). *)
let lcg seed =
  let s = ref ((abs seed * 2) + 1) in
  fun n ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod n

exception Crash

(* One universe: build, run [ncommits] random transactions interleaved
   with a checkpoint lifecycle, optionally crashing the primary just
   before packet [k].  Returns the bed (crashed or not). *)
let universe ~elision ~group ~seed ~crash_at () =
  let config =
    { P.default_config with P.redundancy_elision = elision; P.group_commit = group }
  in
  let b = with_db ~config () in
  Ckpt.set_ram_target b.t ~server:b.ckpt_server;
  let rand = lcg seed in
  let sent = ref 0 in
  let hook () =
    (match crash_at with Some k when !sent >= k -> raise Crash | _ -> ());
    incr sent
  in
  P.set_packet_hook b.t (Some hook);
  let ck f = try f () with Ckpt.Target_lost _ -> () in
  (try
     for i = 0 to 5 do
       let txn = P.begin_transaction b.t in
       for _ = 0 to rand 3 do
         let s = seg b (if rand 2 = 0 then "x" else "y") in
         let off = 64 * rand 40 in
         let len = 32 + rand 96 in
         P.set_range txn s ~off ~len;
         P.write b.t s ~off (Bytes.make len (Char.chr (33 + rand 90)))
       done;
       P.commit txn;
       match i with
       | 1 -> ck (fun () -> ignore (Ckpt.take b.t))
       | 3 -> ck (fun () -> Ckpt.start b.t)
       | 4 -> if Ckpt.in_flight b.t then ck (fun () -> ignore (Ckpt.step b.t ~budget:2048))
       | 5 -> if Ckpt.in_flight b.t then ck (fun () -> ignore (Ckpt.finalize b.t))
       | _ -> ()
     done
   with Crash -> ());
  P.set_packet_hook b.t None;
  (b, !sent)

let prop_ckpt_recovery_differential =
  QCheck.Test.make ~name:"checkpoint recovery == plain undo-replay recovery" ~count:12
    QCheck.(pair (pair bool (int_range 1 3)) (pair small_nat small_nat))
    (fun ((elision, group), (seed, kpick)) ->
      (* Dry run measures the packet schedule; the two crashing
         universes are byte-identical up to the same cut. *)
      let _, total = universe ~elision ~group ~seed ~crash_at:None () in
      let k = kpick mod (total + 1) in
      let crashed () =
        let b, _ = universe ~elision ~group ~seed ~crash_at:(Some k) () in
        ignore (Cluster.crash_node b.cluster 0 Cluster.Failure.Software_error);
        b
      in
      let a = crashed () in
      let ta =
        P.recover_replicated ~config:(P.config a.t) ~checkpoint:(P.Ram_source a.ckpt_server)
          ~cluster:a.cluster ~local:a.ckpt_node ~servers:a.servers ()
      in
      let bb = crashed () in
      let tb =
        P.recover_replicated ~config:(P.config bb.t) ~cluster:bb.cluster ~local:bb.spare
          ~servers:bb.servers ()
      in
      if signature ta <> signature tb then
        QCheck.Test.fail_reportf
          "images diverge at k=%d/%d (elision %b, group %d): checkpoint path != replay path" k
          total elision group;
      if P.epoch ta <> P.epoch tb then QCheck.Test.fail_report "epochs diverge";
      if P.verify_mirrors ta <> [] then QCheck.Test.fail_report "checkpoint path: dirty mirrors";
      if P.verify_mirrors tb <> [] then QCheck.Test.fail_report "replay path: dirty mirrors";
      true)

(* ------------------------------------------------------------------ *)
(* Crash sweeps: every packet of an in-progress checkpoint              *)

let sweep_ok victim =
  let r = Crashpoint.sweep ~victim (Crashpoint.checkpoint_scenario ()) in
  check_bool
    (Printf.sprintf "%s: sweep covers every packet" (Crashpoint.victim_label victim))
    true
    (r.Crashpoint.total_packets > 0
    && List.length r.Crashpoint.points = r.Crashpoint.total_packets + 1);
  check_bool
    (Printf.sprintf "%s: no mirror mismatches" (Crashpoint.victim_label victim))
    true
    (List.for_all (fun p -> p.Crashpoint.mismatches = 0) r.Crashpoint.points)

(* Recovery itself cut at every packet, the recovering node killed, and
   recovery rerun elsewhere — both orders of the target's node and the
   spare. *)
let recovery_sweep_ok ~in_place_first =
  let victim = Crashpoint.Recovering { in_place_first } in
  let r = Crashpoint.sweep ~victim (Crashpoint.recovery_scenario ()) in
  let label = Crashpoint.victim_label victim in
  check_bool (label ^ ": sweep covers every recovery packet") true
    (r.Crashpoint.total_packets > 0
    && List.length r.Crashpoint.points = r.Crashpoint.total_packets + 1);
  check_int (label ^ ": every point recovers the committed image")
    (List.length r.Crashpoint.points) r.Crashpoint.new_images

let test_sweep_recovering_in_place_first () = recovery_sweep_ok ~in_place_first:true
let test_sweep_recovering_spare_first () = recovery_sweep_ok ~in_place_first:false

(* The recovery scenario's script cut by the other victims: every
   commit declares its image and a target lost mid-take costs only the
   checkpoint, so a primary, mirror or target death at any packet
   recovers to a legal image at two mirrors. *)
let test_sweep_recovery_script_every_victim () =
  List.iter
    (fun victim ->
      let r = Crashpoint.sweep ~victim (Crashpoint.recovery_scenario ~mirrors:2 ()) in
      check_int
        (Crashpoint.victim_label victim ^ ": one point per packet boundary")
        (r.Crashpoint.total_packets + 1)
        (List.length r.Crashpoint.points))
    [ Crashpoint.Primary; Crashpoint.Mirror 0; Crashpoint.Ckpt_target ]

let test_sweep_primary () = sweep_ok Crashpoint.Primary
let test_sweep_mirror () = sweep_ok (Crashpoint.Mirror 0)
let test_sweep_ckpt_target () = sweep_ok Crashpoint.Ckpt_target

let suite =
  [
    ("take truncates undo, dirty and hwm", `Quick, test_take_truncates);
    ("lifecycle guards", `Quick, test_lifecycle_guards);
    ("fuzzy cut is consistent", `Quick, test_fuzzy_cut_consistent);
    ("open transaction scrubbed out of the snapshot", `Quick, test_open_txn_scrubbed_out);
    ("torn slot falls back to the previous generation", `Quick, test_torn_slot_falls_back);
    ("target loss is survivable and typed", `Quick, test_target_lost);
    ("retired-epoch table is bounded", `Quick, test_retired_table_bounded);
    ("retired_limit is validated", `Quick, test_retired_limit_validated);
    ("incremental recruit survives truncation", `Quick, test_incremental_recruit_after_truncation);
    ("dirty-log overflow forces a full recruit", `Quick, test_overflow_forces_full_recruit);
    ("recruit after the overflow floor is incremental", `Quick, test_recruit_after_overflow_is_incremental);
    ("dirty-log overflow re-ships whole images", `Quick, test_overflow_reships_whole_images);
    ("a rebooted retiree resyncs in full", `Quick, test_rebooted_retiree_full_resync);
    ("background checkpointer", `Quick, test_auto_checkpoints);
    ("churn heals across truncations", `Slow, test_churn_with_checkpoints);
    ("helper nodes shorten recovery", `Quick, test_helpers_cut_recovery_time);
    ("a helper splits a dominant segment", `Quick, test_helper_splits_a_dominant_segment);
    ("recovery adopts every chunk unlisted since the cut", `Quick, test_adopts_all_but_one_chunk);
    ("full-resync joiner receives every entry", `Quick, test_full_resync_joiner_gets_entries);
    ("incremental joiner receives every entry", `Quick, test_incremental_joiner_gets_entries);
    ("an earlier install's slot is not adopted", `Quick, test_earlier_install_slot_ignored);
    ("a slot cut before the list's base is not adopted", `Quick, test_slot_before_base_ignored);
    ("a full list adopts nothing", `Quick, test_full_list_adopts_nothing);
    ("a stale entry restores stale bytes", `Quick, test_stale_entry_restores_stale_bytes);
    ("hooked, observed and bare recoveries agree", `Quick, test_observed_recovery_agrees);
    ("a slot on another node changes nothing", `Quick, test_slot_elsewhere_changes_nothing);
    ("a second recovery ignores unmaintained entries", `Quick,
      test_second_recovery_ignores_unmaintained_entries);
    ("crash sweep: primary victim", `Slow, test_sweep_primary);
    ("crash sweep: mirror victim", `Slow, test_sweep_mirror);
    ("crash sweep: checkpoint-target victim", `Slow, test_sweep_ckpt_target);
    ("crash sweep: recovering node, target's node first", `Slow, test_sweep_recovering_in_place_first);
    ("crash sweep: recovering node, spare first", `Slow, test_sweep_recovering_spare_first);
    ("crash sweep: recovery script, every other victim", `Slow, test_sweep_recovery_script_every_victim);
    QCheck_alcotest.to_alcotest prop_ckpt_recovery_differential;
  ]
