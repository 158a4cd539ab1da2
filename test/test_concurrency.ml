(* Concurrency-era semantics: transaction identity, line-granular
   conflicts, group commit, and the invariants that silently assumed
   one transaction per engine before multiple clients existed. *)

open Sim
module P = Perseas
module Multi_client = Harness.Multi_client
module Crashpoint = Harness.Crashpoint

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_i64 = check Alcotest.int64
let check_str = check Alcotest.string

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

let with_db ?config ?(size = 16384) () =
  let b = bed ?config () in
  let seg = P.malloc b.t ~name:"db" ~size in
  P.write b.t seg ~off:0 (Bytes.init size (fun i -> Char.chr (i land 0xff)));
  P.init_remote_db b.t;
  (b, seg)

let group_config ?(group = 4) () = { P.default_config with group_commit = group }

(* ------------------------------------------------------------------ *)
(* Transaction identity *)

let test_double_begin () =
  let b, _seg = with_db () in
  let a = P.begin_transaction ~client:"alice" b.t in
  (* Same client again: a typed error naming the offender. *)
  (try
     ignore (P.begin_transaction ~client:"alice" b.t);
     Alcotest.fail "expected Double_begin"
   with P.Double_begin who -> check_str "offending client named" "alice" who);
  (* A distinct client is legal, and ids are distinct. *)
  let c = P.begin_transaction ~client:"carol" b.t in
  check_int "two in flight" 2 (P.open_txn_count b.t);
  check_bool "distinct ids" true (P.txn_id a <> P.txn_id c);
  check_str "client recorded" "carol" (P.txn_client c);
  P.abort a;
  (* The name frees on close: alice may begin again. *)
  let a2 = P.begin_transaction ~client:"alice" b.t in
  P.abort a2;
  P.abort c;
  check_int "all closed" 0 (P.open_txn_count b.t)

(* ------------------------------------------------------------------ *)
(* Conflicts: the younger side always loses *)

let test_conflict_younger_requester_aborts () =
  let b, seg = with_db () in
  let before = P.checksum b.t seg in
  let older = P.begin_transaction ~client:"older" b.t in
  P.set_range older seg ~off:256 ~len:64;
  P.write b.t seg ~off:256 (Bytes.make 64 'o');
  let younger = P.begin_transaction ~client:"younger" b.t in
  P.set_range younger seg ~off:1024 ~len:32;
  P.write b.t seg ~off:1024 (Bytes.make 32 'y');
  (* The younger declarer hits the older holder's line: the requester
     is the younger party, so it aborts — rolled back and closed. *)
  (try
     P.set_range younger seg ~off:300 ~len:8;
     Alcotest.fail "expected Conflict"
   with P.Conflict { younger = y; older = o } ->
     check_int "younger id" (P.txn_id younger) y;
     check_int "older id" (P.txn_id older) o);
  check_int "loser closed" 1 (P.open_txn_count b.t);
  (* The loser's earlier write is already undone; the older holder's
     write survives and commits. *)
  check_str "loser's bytes rolled back"
    (Bytes.to_string (Bytes.init 32 (fun i -> Char.chr ((1024 + i) land 0xff))))
    (Bytes.to_string (P.read b.t seg ~off:1024 ~len:32));
  P.commit older;
  check_bool "winner committed" true (P.checksum b.t seg <> before);
  check_i64 "mirror agrees" (P.checksum b.t seg) (P.mirror_checksum b.t seg)

let test_conflict_younger_holder_doomed () =
  let b, seg = with_db () in
  let older = P.begin_transaction ~client:"older" b.t in
  let younger = P.begin_transaction ~client:"younger" b.t in
  P.set_range younger seg ~off:512 ~len:64;
  P.write b.t seg ~off:512 (Bytes.make 64 'y');
  (* The older transaction declares the younger holder's line: the
     holder is doomed on the spot (rolled back immediately) and the
     older declaration proceeds. *)
  P.set_range older seg ~off:520 ~len:8;
  check_str "doomed holder's bytes already rolled back"
    (Bytes.to_string (Bytes.init 64 (fun i -> Char.chr ((512 + i) land 0xff))))
    (Bytes.to_string (P.read b.t seg ~off:512 ~len:64));
  (* The victim only learns at its next step: validate surfaces the
     deferred Conflict, after which the transaction is closed. *)
  (try
     P.validate younger;
     Alcotest.fail "expected deferred Conflict"
   with P.Conflict { younger = y; older = o } ->
     check_int "victim id" (P.txn_id younger) y;
     check_int "winner id" (P.txn_id older) o);
  P.write b.t seg ~off:520 (Bytes.make 8 'O');
  P.commit older;
  check_i64 "winner's commit replicated" (P.checksum b.t seg) (P.mirror_checksum b.t seg)

let test_doomed_abort_is_silent () =
  let b, seg = with_db () in
  let older = P.begin_transaction ~client:"older" b.t in
  let younger = P.begin_transaction ~client:"younger" b.t in
  P.set_range younger seg ~off:512 ~len:8;
  P.set_range older seg ~off:512 ~len:8;
  (* A victim that goes straight to abort (never validating) must not
     blow up: the rollback already happened at doom time. *)
  P.abort younger;
  P.abort older;
  check_int "both closed" 0 (P.open_txn_count b.t)

(* Conflicts are decided per 64-byte line, not per byte: two
   declarations clash when they touch one line, even on disjoint bytes,
   including the short last line of a segment whose size is not a
   multiple of 64. *)
let test_conflict_shares_a_line () =
  let expect_conflict t ~older ~younger seg ~off ~len =
    try
      P.set_range younger seg ~off ~len;
      Alcotest.fail "expected Conflict"
    with P.Conflict { younger = y; older = o } ->
      check_int "younger loses" (P.txn_id younger) y;
      check_int "older wins" (P.txn_id older) o;
      check_int "only the older stays open" 1 (P.open_txn_count t)
  in
  let b, seg = with_db () in
  let older = P.begin_transaction ~client:"older" b.t in
  P.set_range older seg ~off:256 ~len:8;
  let younger = P.begin_transaction ~client:"younger" b.t in
  expect_conflict b.t ~older ~younger seg ~off:312 ~len:8;
  P.abort older;
  let b = bed () in
  let seg = P.malloc b.t ~name:"odd" ~size:1000 in
  P.init_remote_db b.t;
  let older = P.begin_transaction ~client:"older" b.t in
  P.set_range older seg ~off:990 ~len:10;
  let younger = P.begin_transaction ~client:"younger" b.t in
  expect_conflict b.t ~older ~younger seg ~off:965 ~len:5;
  P.abort older

let test_neighbouring_lines_do_not_conflict () =
  let b, seg = with_db () in
  let older = P.begin_transaction ~client:"older" b.t in
  P.set_range older seg ~off:256 ~len:64;
  let younger = P.begin_transaction ~client:"younger" b.t in
  (* The lines on either side, the first byte after the held line
     included. *)
  P.set_range younger seg ~off:320 ~len:4;
  P.set_range younger seg ~off:192 ~len:64;
  let s = P.stats b.t in
  check_int "no conflict" 0 s.P.conflicts;
  check_int "both open" 2 (P.open_txn_count b.t);
  P.write b.t seg ~off:320 (Bytes.make 4 'y');
  P.write b.t seg ~off:256 (Bytes.make 64 'o');
  P.commit younger;
  P.commit older;
  check_i64 "mirror agrees" (P.checksum b.t seg) (P.mirror_checksum b.t seg)

let test_declaring_a_staged_line_flushes () =
  let b, seg = with_db ~config:(group_config ()) () in
  let staged = P.begin_transaction ~client:"a" b.t in
  P.set_range staged seg ~off:0 ~len:8;
  P.write b.t seg ~off:0 (Bytes.make 8 'a');
  P.commit staged;
  check_int "staged" 1 (P.staged_count b.t);
  let flushes () = (P.stats b.t).P.group_flushes in
  let f0 = flushes () in
  let next = P.begin_transaction ~client:"b" b.t in
  P.set_range next seg ~off:64 ~len:8;
  check_int "the next line leaves the queue alone" 1 (P.staged_count b.t);
  P.set_range next seg ~off:40 ~len:8;
  check_int "the staged line flushes the queue first" 0 (P.staged_count b.t);
  check_int "one flush" 1 (flushes () - f0);
  check_int "no conflict" 0 (P.stats b.t).P.conflicts;
  P.write b.t seg ~off:40 (Bytes.make 8 'b');
  P.commit next;
  P.flush b.t;
  check_str "staged bytes durable under the declarer" "aaaaaaaa"
    (Bytes.to_string (P.read b.t seg ~off:0 ~len:8));
  check_i64 "mirror agrees" (P.checksum b.t seg) (P.mirror_checksum b.t seg)

(* ------------------------------------------------------------------ *)
(* Group commit *)

let test_group_flush_matches_serial_image () =
  let payload c = Bytes.make 48 c in
  let script t seg commit =
    List.iter
      (fun (client, off, c) ->
        let txn = P.begin_transaction ~client t in
        P.set_range txn seg ~off ~len:48;
        P.write t seg ~off (payload c);
        commit txn)
      [ ("a", 0, 'A'); ("b", 512, 'B'); ("c", 1024, 'C'); ("d", 1536, 'D') ]
  in
  (* Group engine: all four stage, one flush at the fourth commit. *)
  let bg, sg = with_db ~config:(group_config ()) () in
  let s0 = P.stats bg.t in
  let staged_seen = ref 0 in
  script bg.t sg (fun txn ->
      P.commit txn;
      staged_seen := max !staged_seen (P.staged_count bg.t));
  let s1 = P.stats bg.t in
  check_int "queue drained by the full-window flush" 0 (P.staged_count bg.t);
  check_bool "commits really were staged" true (!staged_seen >= 1);
  check_int "one group flush" 1 (s1.P.group_flushes - s0.P.group_flushes);
  check_int "four transactions in it" 4 (s1.P.group_commit_txns - s0.P.group_commit_txns);
  (* Eager engine: same writes, one commit each. *)
  let be, se = with_db () in
  script be.t se (fun txn -> P.commit txn);
  check_i64 "grouped image equals serialized image" (P.checksum be.t se) (P.checksum bg.t sg);
  check_i64 "grouped mirror equals local" (P.checksum bg.t sg) (P.mirror_checksum bg.t sg)

let test_commit_packets_sums_to_nic_delta () =
  (* Eager: the dry-run equals the commit's own packet cost. *)
  let b, seg = with_db () in
  let nic = Cluster.nic b.cluster in
  let packets () =
    let c = Sci.Nic.counters nic in
    c.Sci.Nic.packets64 + c.Sci.Nic.packets16
  in
  let txn = P.begin_transaction b.t in
  P.set_range txn seg ~off:0 ~len:100;
  P.write b.t seg ~off:0 (Bytes.make 100 'e');
  let predicted = P.commit_packets txn in
  let p0 = packets () in
  P.commit txn;
  check_int "eager dry-run equals measured" predicted (packets () - p0);
  (* Group: each member's dry-run is its marginal cost; the sum over
     the batch must equal the flush's measured packets exactly. *)
  let b, seg = with_db ~config:(group_config ~group:8 ()) () in
  let nic = Cluster.nic b.cluster in
  let packets () =
    let c = Sci.Nic.counters nic in
    c.Sci.Nic.packets64 + c.Sci.Nic.packets16
  in
  let total = ref 0 in
  List.iter
    (fun (client, off, len) ->
      let txn = P.begin_transaction ~client b.t in
      P.set_range txn seg ~off ~len;
      P.write b.t seg ~off (Bytes.make len 'g');
      total := !total + P.commit_packets txn;
      P.commit txn)
    [ ("a", 0, 100); ("b", 512, 8); ("c", 1024, 300); ("d", 2048, 64) ];
  let p0 = packets () in
  P.flush b.t;
  check_int "sum of marginal dry-runs equals the flush's NIC delta" !total (packets () - p0)

let test_overflow_mid_group_aborts_only_overflower () =
  let config = { (group_config ~group:8 ()) with undo_capacity = 4096 } in
  let b, seg = with_db ~config () in
  let commit_range client off c =
    let txn = P.begin_transaction ~client b.t in
    P.set_range txn seg ~off ~len:64;
    P.write b.t seg ~off (Bytes.make 64 c);
    P.commit txn
  in
  commit_range "a" 0 'A';
  commit_range "b" 512 'B';
  check_int "both staged" 2 (P.staged_count b.t);
  let expect_a = Bytes.to_string (P.read b.t seg ~off:0 ~len:64) in
  let expect_b = Bytes.to_string (P.read b.t seg ~off:512 ~len:64) in
  (* The third transaction blows the log: the staged pair is flushed
     (retired durably), then the overflow surfaces to the offender
     alone. *)
  let huge = P.begin_transaction ~client:"c" b.t in
  (try
     P.set_range huge seg ~off:4096 ~len:4090;
     Alcotest.fail "expected Undo_overflow"
   with P.Undo_overflow -> ());
  P.abort huge;
  check_int "queue was flushed by the overflow" 0 (P.staged_count b.t);
  (* Byte identity of the survivors, locally and on the mirror. *)
  check_str "a's bytes survive" expect_a (Bytes.to_string (P.read b.t seg ~off:0 ~len:64));
  check_str "b's bytes survive" expect_b (Bytes.to_string (P.read b.t seg ~off:512 ~len:64));
  check_i64 "mirror byte-identical" (P.checksum b.t seg) (P.mirror_checksum b.t seg);
  (* And the engine keeps working. *)
  commit_range "d" 1024 'D';
  P.flush b.t;
  check_i64 "later commit clean" (P.checksum b.t seg) (P.mirror_checksum b.t seg)

(* ------------------------------------------------------------------ *)
(* Membership under load: heal a mirror while four clients run *)

let test_heal_mirror_under_four_clients () =
  (* Primary on node 0, two mirrors, one spare for the heal. *)
  let clock = Clock.create () in
  let dram = 8 * 1024 * 1024 in
  let cluster =
    Cluster.create ~clock
      [
        Cluster.spec ~dram_size:dram ~power_supply:0 "primary";
        Cluster.spec ~dram_size:dram ~power_supply:1 "mirror0";
        Cluster.spec ~dram_size:dram ~power_supply:2 "mirror1";
        Cluster.spec ~dram_size:dram ~power_supply:3 "spare";
      ]
  in
  let servers = List.init 2 (fun i -> Netram.Server.create (Cluster.node cluster (i + 1))) in
  let clients = List.map (fun server -> Netram.Client.create ~cluster ~local:0 ~server) servers in
  let t = P.init_replicated ~config:{ P.default_config with group_commit = 4 } clients in
  let module W = Workloads.Debit_credit.Make (P.Engine) in
  let rng = Rng.create 11 in
  let db = W.setup t ~params:Workloads.Debit_credit.small_params in
  let spec =
    {
      Multi_client.prepare = (fun _ -> W.draw db rng);
      declare = (fun txn d -> W.declare db txn d);
      apply = (fun d -> W.apply db d);
    }
  in
  ignore (Multi_client.run t ~clients:4 ~total:100 spec);
  (* Kill a mirror and keep the four clients running degraded. *)
  ignore (Cluster.crash_node cluster 2 Cluster.Failure.Hardware_error);
  ignore (Multi_client.run t ~clients:4 ~total:50 spec);
  check_int "down a mirror" 1 (P.mirror_count t);
  (* Heal with four transactions genuinely in flight: begin + declare
     on every client (disjoint history lines, so they never conflict
     with each other — the point is concurrency with the attach, not
     with each other), attach the spare mid-stream, then finish them.
     The attach must drain the staged queue and scrub the open
     transactions' pre-images onto the joiner. *)
  let hist = db.W.history in
  let open_txns =
    List.init 4 (fun i ->
        let txn = P.begin_transaction ~client:(Multi_client.client_name i) t in
        P.set_range txn hist ~off:(i * 128) ~len:64;
        (txn, i))
  in
  P.attach_mirror t ~server:(Netram.Server.create (Cluster.node cluster 3));
  check_int "healed to two mirrors" 2 (P.mirror_count t);
  List.iter
    (fun (txn, i) ->
      P.write t hist ~off:(i * 128) (Bytes.make 64 (Char.chr (Char.code 'p' + i)));
      P.commit txn)
    open_txns;
  P.flush t;
  ignore (Multi_client.run t ~clients:4 ~total:100 spec);
  P.flush t;
  check_bool "workload invariant holds" true (W.consistent db);
  check_int "mirrors byte-identical after the heal" 0 (List.length (P.verify_mirrors t))

(* ------------------------------------------------------------------ *)
(* Crash sweep with transactions in flight *)

let test_crash_sweep_concurrent () =
  let r = Crashpoint.sweep (Crashpoint.concurrent_scenario ~mirrors:1 ()) in
  check_bool "enough packets to mean anything" true (r.Crashpoint.total_packets > 20);
  let crashes = List.length (List.filter (fun p -> p.Crashpoint.crashed) r.Crashpoint.points) in
  check_int "every boundary crashed" r.Crashpoint.total_packets crashes;
  check_bool "some points recovered to the pre image" true (r.Crashpoint.old_images > 0);
  check_bool "some points recovered to the post image" true (r.Crashpoint.new_images > 0);
  check_bool "some recoveries replayed undo" true (r.Crashpoint.repaired > 0);
  (* Mirror victim: the primary must finish degraded at every cut. *)
  let r2 =
    Crashpoint.sweep ~victim:(Crashpoint.Mirror 0) (Crashpoint.concurrent_scenario ~mirrors:2 ())
  in
  let crashes2 = List.length (List.filter (fun p -> p.Crashpoint.crashed) r2.Crashpoint.points) in
  check_int "every mirror-victim boundary crashed" r2.Crashpoint.total_packets crashes2

(* ------------------------------------------------------------------ *)
(* Differential oracle: concurrent disjoint schedules serialize *)

type txn_spec = { ranges : (int * int) list; fill : char }

let spec_gen ~stripe ~n =
  (* Each transaction owns a disjoint [stripe]-byte slice of the
     segment, so any interleaving is conflict-free by construction. *)
  let range_gen base =
    QCheck.Gen.(
      map2
        (fun jitter len -> (base + jitter, 1 + len))
        (int_bound (stripe - 130)) (int_bound 63))
  in
  QCheck.Gen.(
    map
      (fun specs -> specs)
      (flatten_l
         (List.init n (fun i ->
              map2
                (fun r1 extra ->
                  { ranges = (r1 :: extra); fill = Char.chr (Char.code 'a' + (i mod 26)) })
                (range_gen (i * stripe))
                (map (fun o -> Option.to_list o) (opt (range_gen (i * stripe))))))))

let overlapping (o1, l1) (o2, l2) =
  (* 64-byte line granularity, like the engine. *)
  let lo1 = o1 / 64 and hi1 = (o1 + l1 - 1) / 64 in
  let lo2 = o2 / 64 and hi2 = (o2 + l2 - 1) / 64 in
  not (hi1 < lo2 || hi2 < lo1)

let sanitize specs =
  (* Drop a transaction's second range if it line-collides with its
     first (cross-transaction collisions are impossible by striping;
     the engine would merge same-transaction overlaps anyway — the
     oracle wants pure disjoint write-sets). *)
  List.map
    (fun s ->
      match s.ranges with
      | [ r1; r2 ] when overlapping r1 r2 -> { s with ranges = [ r1 ] }
      | _ -> s)
    specs

let run_concurrent ~clients ~group specs bits =
  let b, seg = with_db ~config:(group_config ~group ()) ~size:(64 * 1024) () in
  let order = ref [] in
  let opened = Queue.create () in
  let commit_oldest () =
    let i, txn = Queue.pop opened in
    P.commit txn;
    order := i :: !order
  in
  List.iteri
    (fun i s ->
      if Queue.length opened >= clients then commit_oldest ();
      let txn = P.begin_transaction ~client:(Printf.sprintf "c%d" (i mod clients)) b.t in
      (* One client name per slot would double-begin; use the txn index
         modulo a rotating pool and commit the oldest first when the
         pool wraps onto a still-open name. *)
      List.iter (fun (off, len) -> P.set_range txn seg ~off ~len) s.ranges;
      List.iter (fun (off, len) -> P.write b.t seg ~off (Bytes.make len s.fill)) s.ranges;
      Queue.push (i, txn) opened;
      if (bits lsr (i land 30)) land 1 = 1 && Queue.length opened > 1 then commit_oldest ())
    specs;
  while not (Queue.is_empty opened) do
    commit_oldest ()
  done;
  P.flush b.t;
  let s = P.stats b.t in
  (P.checksum b.t seg, P.mirror_checksum b.t seg, s.P.conflicts, List.rev !order)

let run_serial specs order =
  let b, seg = with_db ~size:(64 * 1024) () in
  List.iter
    (fun i ->
      let s = List.nth specs i in
      let txn = P.begin_transaction b.t in
      List.iter (fun (off, len) -> P.set_range txn seg ~off ~len) s.ranges;
      List.iter (fun (off, len) -> P.write b.t seg ~off (Bytes.make len s.fill)) s.ranges;
      P.commit txn)
    order;
  (P.checksum b.t seg, P.mirror_checksum b.t seg)

let prop_concurrent_serializes =
  let stripe = 1024 in
  let gen =
    QCheck.Gen.(
      int_range 4 24 >>= fun n ->
      spec_gen ~stripe ~n >>= fun specs ->
      map2 (fun bits group -> (specs, bits, group)) (int_bound 0x3FFFFFFF) (int_range 2 8))
  in
  QCheck.Test.make ~name:"concurrent disjoint schedules serialize" ~count:60
    (QCheck.make gen) (fun (specs, bits, group) ->
      let specs = sanitize specs in
      let local, mirror, conflicts, order = run_concurrent ~clients:4 ~group specs bits in
      if conflicts <> 0 then QCheck.Test.fail_report "disjoint write-sets conflicted";
      if List.sort compare order <> List.init (List.length specs) (fun i -> i) then
        QCheck.Test.fail_report "driver lost a transaction";
      let slocal, smirror = run_serial specs order in
      if local <> slocal then QCheck.Test.fail_report "concurrent image diverged from serialized";
      if mirror <> local then QCheck.Test.fail_report "mirror diverged from local";
      if smirror <> slocal then QCheck.Test.fail_report "serial mirror diverged";
      true)

(* ------------------------------------------------------------------ *)
(* Reference model: colliding schedules *)

(* Two small segments, the first with a short last line, so that
   declarations collide often and line numbers cross a segment
   boundary. *)
let model_sizes = [| 500; 448 |]

type action =
  | Declare of int * int * int (* segment, off, len *)
  | Write of bool * int * int * int
      (* aimed into the client's own declarations?, segment, off, len *)
  | Commit
  | Abort
  | Validate
  | Flush

(* The model's transaction: what it declared (ranges and 64-byte lines)
   and the writes the engine accepted for it, newest first. *)
type mtxn = {
  id : int;
  client : int;
  handle : P.txn;
  mutable lines : (int * int) list;
  mutable decls : (int * int * int) list;
  mutable writes : (int * int * bytes) list;
  mutable staged : bool;
}

type slot = Idle | Live of mtxn | Doomed of P.txn * int * int (* handle, own id, doomer's id *)

let pp_action = function
  | Declare (s, off, len) -> Printf.sprintf "declare s%d [%d,+%d)" s off len
  | Write (aim, s, off, len) ->
      Printf.sprintf "write%s s%d [%d,+%d)" (if aim then " aimed" else "") s off len
  | Commit -> "commit"
  | Abort -> "abort"
  | Validate -> "validate"
  | Flush -> "flush"

let pp_schedule (clients, group, ops) =
  Printf.sprintf "clients=%d group=%d\n%s" clients group
    (String.concat "\n" (List.map (fun (c, a) -> Printf.sprintf "  c%d %s" c (pp_action a)) ops))

let gen_schedule =
  let open QCheck.Gen in
  let seg = int_bound (Array.length model_sizes - 1) in
  let range max_len =
    seg >>= fun s ->
    int_range 1 max_len >>= fun len ->
    int_bound (model_sizes.(s) - len) >|= fun off -> (s, off, len)
  in
  let declare = range 96 >|= fun (s, off, len) -> Declare (s, off, len) in
  let aim = frequency [ (3, return true); (1, return false) ] in
  let write = pair aim (range 64) >|= fun (aim, (s, off, len)) -> Write (aim, s, off, len) in
  let action =
    frequency
      [
        (8, declare);
        (6, write);
        (3, return Commit);
        (1, return Abort);
        (1, return Validate);
        (1, return Flush);
      ]
  in
  int_range 2 6 >>= fun clients ->
  oneof [ return 1; int_range 2 8 ] >>= fun group ->
  pair declare declare >>= fun (d0, d1) ->
  list_size (int_range 10 60) (pair (int_bound (clients - 1)) action) >|= fun ops ->
  (* Client 0 declares before client 1 begins: the second begin fills
     the line index from a write-set already in flight. *)
  (clients, group, (0, d0) :: (1, d1) :: ops)

let run_model (clients, group, ops) =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let config = { (group_config ~group ()) with undo_capacity = 128 * 1024 } in
  let b = bed ~dram:(1024 * 1024) ~config () in
  let segs =
    Array.mapi
      (fun i size ->
        let seg = P.malloc b.t ~name:(Printf.sprintf "s%d" i) ~size in
        P.write b.t seg ~off:0 (Bytes.init size (fun j -> Char.chr (((j * 13) + i) land 0xff)));
        seg)
      model_sizes
  in
  P.init_remote_db b.t;
  let committed = Array.map (fun seg -> P.read b.t seg ~off:0 ~len:(P.segment_size seg)) segs in
  let slots = Array.make clients Idle in
  let inflight = ref [] (* open and staged model transactions *) in
  let queue = ref [] (* staged, commit order *) in
  let next_id = ref 1 in
  let drop x = inflight := List.filter (fun y -> y != x) !inflight in
  let apply x =
    List.iter
      (fun (s, off, data) -> Bytes.blit data 0 committed.(s) off (Bytes.length data))
      (List.rev x.writes)
  in
  let model_flush () =
    List.iter
      (fun x ->
        apply x;
        drop x)
      !queue;
    queue := []
  in
  let stats () = P.stats b.t in
  let expect_deltas what (s0 : P.stats) ~flushes ~conflicts =
    let s1 = stats () in
    if s1.P.group_flushes - s0.P.group_flushes <> flushes then
      fail "%s: %d flushes, model %d" what (s1.P.group_flushes - s0.P.group_flushes) flushes;
    if s1.P.conflicts - s0.P.conflicts <> conflicts then
      fail "%s: %d conflicts, model %d" what (s1.P.conflicts - s0.P.conflicts) conflicts
  in
  let lines_of s off len =
    List.init (((off + len - 1) / 64) - (off / 64) + 1) (fun i -> (s, (off / 64) + i))
  in
  let covers x s off len =
    let declared b = List.exists (fun (s', o, l) -> s' = s && o <= b && b < o + l) x.decls in
    let rec go b = b >= off + len || (declared b && go (b + 1)) in
    go off
  in
  let begin_ c =
    let h = P.begin_transaction ~client:(Printf.sprintf "c%d" c) b.t in
    if P.txn_id h <> !next_id then fail "begin: id %d, model %d" (P.txn_id h) !next_id;
    let x =
      { id = !next_id; client = c; handle = h; lines = []; decls = []; writes = []; staged = false }
    in
    incr next_id;
    inflight := x :: !inflight;
    slots.(c) <- Live x;
    x
  in
  let declare x (s, off, len) =
    let what = Printf.sprintf "t%d declare s%d [%d,+%d)" x.id s off len in
    let lines = lines_of s off len in
    let holds y = y != x && List.exists (fun l -> List.mem l y.lines) lines in
    let peers = List.filter holds !inflight in
    let flushes = List.exists (fun y -> y.staged) peers in
    let s0 = stats () in
    if flushes then model_flush ();
    let clashing = List.filter (fun y -> not y.staged) peers in
    let older =
      List.fold_left (fun acc y -> if y.id < x.id then max acc y.id else acc) 0 clashing
    in
    match P.set_range x.handle segs.(s) ~off ~len with
    | () ->
        if older > 0 then fail "%s: proceeded, model loses to t%d" what older;
        List.iter
          (fun v ->
            drop v;
            slots.(v.client) <- Doomed (v.handle, v.id, x.id))
          clashing;
        x.lines <- lines @ x.lines;
        x.decls <- (s, off, len) :: x.decls;
        expect_deltas what s0 ~flushes:(Bool.to_int flushes) ~conflicts:(List.length clashing)
    | exception P.Conflict { younger; older = o } ->
        if older = 0 then fail "%s: Conflict with t%d, model proceeds" what o;
        if younger <> x.id || o <> older then
          fail "%s: Conflict {younger = %d; older = %d}, model {%d; %d}" what younger o x.id older;
        drop x;
        slots.(x.client) <- Idle;
        expect_deltas what s0 ~flushes:(Bool.to_int flushes) ~conflicts:1
  in
  let write c ~aim (s, off, len) =
    let s, off, len =
      match slots.(c) with
      | Live ({ decls = _ :: _; _ } as x) when aim ->
          (* Inside one of the client's declarations, sometimes a few
             bytes past its end. *)
          let ds, doff, dlen = List.nth x.decls (off mod List.length x.decls) in
          let start = doff + (off mod dlen) in
          let len = 1 + (len mod (doff + dlen - start + 3)) in
          (ds, start, min len (model_sizes.(ds) - start))
      | _ -> (s, off, len)
    in
    let data = Bytes.make len (Char.chr (Char.code 'A' + (!next_id + off) mod 26)) in
    let owner = List.find_opt (fun y -> (not y.staged) && covers y s off len) !inflight in
    match (P.write b.t segs.(s) ~off data, owner) with
    | (), Some y -> y.writes <- (s, off, data) :: y.writes
    | (), None -> fail "write s%d [%d,+%d): accepted, model rejects" s off len
    | exception Failure _ -> (
        match owner with
        | Some y -> fail "write s%d [%d,+%d): rejected, model accepts for t%d" s off len y.id
        | None -> ())
  in
  let commit x =
    let s0 = stats () in
    P.commit x.handle;
    slots.(x.client) <- Idle;
    if group = 1 then begin
      apply x;
      drop x
    end
    else begin
      x.staged <- true;
      queue := !queue @ [ x ]
    end;
    let flushes = group > 1 && List.length !queue >= group in
    if flushes then model_flush ();
    expect_deltas (Printf.sprintf "t%d commit" x.id) s0 ~flushes:(Bool.to_int flushes) ~conflicts:0
  in
  let step (c, action) =
    (match (slots.(c), action) with
    | Doomed (h, _, _), Abort ->
        P.abort h;
        slots.(c) <- Idle
    | Doomed (h, y, o), _ -> (
        match P.validate h with
        | () -> fail "c%d: doomed t%d validated" c y
        | exception P.Conflict { younger; older } ->
            if younger <> y || older <> o then
              fail "c%d: Conflict {younger = %d; older = %d}, model {%d; %d}" c younger older y o;
            slots.(c) <- Idle)
    | Idle, Declare (s, off, len) -> declare (begin_ c) (s, off, len)
    | Live x, Declare (s, off, len) -> declare x (s, off, len)
    | _, Write (aim, s, off, len) -> write c ~aim (s, off, len)
    | Live x, Commit -> commit x
    | Live x, Abort ->
        P.abort x.handle;
        drop x;
        slots.(c) <- Idle
    | Live x, Validate -> P.validate x.handle
    | _, Flush ->
        let s0 = stats () in
        let flushes = !queue <> [] in
        P.flush b.t;
        model_flush ();
        expect_deltas "flush" s0 ~flushes:(Bool.to_int flushes) ~conflicts:0
    | Idle, (Commit | Abort | Validate) -> ());
    let open_ = List.length (List.filter (fun y -> not y.staged) !inflight) in
    if P.open_txn_count b.t <> open_ then fail "%d open, model %d" (P.open_txn_count b.t) open_;
    if P.staged_count b.t <> List.length !queue then
      fail "%d staged, model %d" (P.staged_count b.t) (List.length !queue)
  in
  List.iter step ops;
  Array.iteri
    (fun c -> function
      | Live x ->
          P.abort x.handle;
          drop x;
          slots.(c) <- Idle
      | Doomed (h, _, _) -> P.abort h
      | Idle -> ())
    slots;
  P.flush b.t;
  model_flush ();
  Array.iteri
    (fun i seg ->
      if P.read b.t seg ~off:0 ~len:(P.segment_size seg) <> committed.(i) then
        fail "segment s%d differs from the model's committed bytes" i)
    segs;
  if P.verify_mirrors b.t <> [] then fail "a mirror differs from the committed image";
  true

let prop_colliding_schedules_match_model =
  QCheck.Test.make ~name:"colliding schedules match the conflict model" ~count:400
    (QCheck.make ~print:pp_schedule
       ~shrink:(fun (c, g, ops) ->
         QCheck.Iter.map (fun ops -> (c, g, ops)) (QCheck.Shrink.list ops))
       gen_schedule)
    run_model

let suite =
  [
    Alcotest.test_case "double begin typed, distinct clients legal" `Quick test_double_begin;
    Alcotest.test_case "younger requester aborts on conflict" `Quick
      test_conflict_younger_requester_aborts;
    Alcotest.test_case "younger holder is doomed, surfaces at validate" `Quick
      test_conflict_younger_holder_doomed;
    Alcotest.test_case "doomed victim may abort silently" `Quick test_doomed_abort_is_silent;
    Alcotest.test_case "disjoint bytes of one line conflict" `Quick test_conflict_shares_a_line;
    Alcotest.test_case "neighbouring lines do not conflict" `Quick
      test_neighbouring_lines_do_not_conflict;
    Alcotest.test_case "declaring a staged line flushes first" `Quick
      test_declaring_a_staged_line_flushes;
    Alcotest.test_case "group flush equals serialized image" `Quick
      test_group_flush_matches_serial_image;
    Alcotest.test_case "commit_packets marginals sum to NIC delta" `Quick
      test_commit_packets_sums_to_nic_delta;
    Alcotest.test_case "overflow mid-group aborts only the overflower" `Quick
      test_overflow_mid_group_aborts_only_overflower;
    Alcotest.test_case "heal a mirror while four clients run" `Slow
      test_heal_mirror_under_four_clients;
    Alcotest.test_case "crash sweep with transactions in flight" `Slow
      test_crash_sweep_concurrent;
    QCheck_alcotest.to_alcotest prop_concurrent_serializes;
    QCheck_alcotest.to_alcotest prop_colliding_schedules_match_model;
  ]
