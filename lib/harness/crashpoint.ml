(* Systematic crash-point enumeration (the correctness tool behind the
   paper's §3 claim): count every remote packet a workload script sends,
   then re-run it once per packet boundary, killing the primary (or a
   chosen mirror) exactly there, and hold recovery to an oracle —
   atomicity (the database equals a legal image), epoch monotonicity,
   and clean mirrors after resync. *)

open Sim
module P = Perseas
module Node = Cluster.Node

type env = {
  clock : Clock.t;
  cluster : Cluster.t;
  servers : Netram.Server.t list;
  primary : int;
  spare : int;
  ckpt : Netram.Server.t option;
  t : P.t;
}

type victim = Primary | Mirror of int | Ckpt_target | Recovering of { in_place_first : bool }
type image = Pre | Post | Checkpoint of int

type point = {
  index : int;
  crashed : bool;
  image : image;
  replayed_records : int;
  replayed_bytes : int;
  recovery_us : float;
  epoch_before : int64;
  epoch_after : int64;
  mismatches : int;
}

type report = {
  label : string;
  victim : victim;
  total_packets : int;
  points : point list;
  old_images : int;
  new_images : int;
  repaired : int;
}

type scenario = {
  label : string;
  make : unit -> env;
  script : env -> checkpoint:(unit -> unit) -> unit;
}

exception Oracle_violation of string

let violation fmt = Printf.ksprintf (fun msg -> raise (Oracle_violation msg)) fmt

let image_label = function
  | Pre -> "old"
  | Post -> "new"
  | Checkpoint i -> Printf.sprintf "checkpoint%d" i

let victim_label = function
  | Primary -> "primary"
  | Mirror i -> Printf.sprintf "mirror%d" i
  | Ckpt_target -> "ckpt-target"
  | Recovering { in_place_first = true } -> "recovering-target-first"
  | Recovering { in_place_first = false } -> "recovering-spare-first"

(* The whole-database fingerprint an image is compared by. *)
let signature t =
  List.sort compare (List.map (fun s -> (P.segment_name s, P.checksum t s)) (P.segments t))

let classify ~pre ~checkpoints ~post s =
  if s = post then Some Post
  else if s = pre then Some Pre
  else
    let rec find i = function
      | [] -> None
      | c :: rest -> if s = c then Some (Checkpoint i) else find (i + 1) rest
    in
    find 0 checkpoints

(* Dry run: same script, counting hook, no crash.  Captures the packet
   count and every legal image (pre-state, each checkpoint the script
   declares, post-state).  Runs are deterministic, so these images are
   exactly what the crashing runs produce at the same boundaries. *)
let dry_run scenario =
  let env = scenario.make () in
  let count = ref 0 in
  let checkpoints = ref [] in
  let pre = signature env.t in
  P.set_packet_hook env.t (Some (fun () -> incr count));
  scenario.script env ~checkpoint:(fun () -> checkpoints := signature env.t :: !checkpoints);
  P.set_packet_hook env.t None;
  (!count, pre, List.rev !checkpoints, signature env.t)

let check_clean_mirrors label t ~where =
  match P.verify_mirrors t with
  | [] -> 0
  | (seg, i) :: _ as l ->
      violation "%s: %d mirror mismatch(es) %s (first: segment %S on mirror %d)" label
        (List.length l) where seg i

let check_epoch label ~epoch_before ~epoch_after =
  if Int64.compare epoch_after epoch_before <= 0 then
    violation "%s: epoch not monotone (%Ld -> %Ld)" label epoch_before epoch_after

(* ------------------------------------------------------------------ *)
(* Primary-victim point: the paper's headline scenario.  The hook
   raises with exactly [k] packets sent, the primary node is crashed,
   and the database is rebuilt from the mirrors — on the spare, or on
   the checkpoint target's node while the scenario keeps one alive. *)

exception Crash

let run_primary_point ?(attach = fun (_ : env) -> ()) ?(recovery_sink = Trace.Sink.noop) scenario
    ~pre ~checkpoints ~post ~k ~total =
  let env = scenario.make () in
  attach env;
  let epoch_before = P.epoch env.t in
  let sent = ref 0 in
  P.set_packet_hook env.t (Some (fun () -> if !sent >= k then raise Crash else incr sent));
  let crashed =
    match scenario.script env ~checkpoint:(fun () -> ()) with
    | () -> false
    | exception Crash -> true
  in
  P.set_packet_hook env.t None;
  if not crashed then begin
    (* k = total: the script ran to completion under the hook. *)
    if signature env.t <> post then
      violation "%s: uncrashed run diverged from the dry-run image" scenario.label;
    let mismatches = check_clean_mirrors scenario.label env.t ~where:"after a full run" in
    {
      index = k;
      crashed = false;
      image = Post;
      replayed_records = 0;
      replayed_bytes = 0;
      recovery_us = 0.;
      epoch_before;
      epoch_after = P.epoch env.t;
      mismatches;
    }
  end
  else begin
    ignore (Cluster.crash_node env.cluster env.primary Cluster.Failure.Software_error);
    let replayed = ref 0 and bytes = ref 0 in
    (* When the scenario maintains a checkpoint target, recovery runs
       on its node, where a slot is adopted in place: the probe must
       reject slots the crash left torn and fall back to the mirrors
       without losing a byte. *)
    let checkpoint, local =
      match env.ckpt with
      | Some s when Netram.Server.is_alive s ->
          (Some (P.Ram_source s), Node.id (Netram.Server.node s))
      | _ -> (None, env.spare)
    in
    let t0 = Clock.now env.clock in
    let t2 =
      P.recover_replicated ~config:(P.config env.t) ~sink:recovery_sink
        ~on_repair:(fun ~name:_ ~len ->
          incr replayed;
          bytes := !bytes + len)
        ?checkpoint ~cluster:env.cluster ~local ~servers:env.servers ()
    in
    let recovery_us = Time.to_us (Clock.now env.clock - t0) in
    let image =
      match classify ~pre ~checkpoints ~post (signature t2) with
      | Some img -> img
      | None ->
          violation "%s: crash at packet %d/%d recovered to neither a pre- nor a post-image"
            scenario.label k total
    in
    let epoch_after = P.epoch t2 in
    check_epoch scenario.label ~epoch_before ~epoch_after;
    let mismatches =
      check_clean_mirrors scenario.label t2
        ~where:(Printf.sprintf "after recovery from packet %d" k)
    in
    {
      index = k;
      crashed = true;
      image;
      replayed_records = !replayed;
      replayed_bytes = !bytes;
      recovery_us;
      epoch_before;
      epoch_after;
      mismatches;
    }
  end

(* ------------------------------------------------------------------ *)
(* Node-death point: the primary survives; a mirror or the checkpoint
   target dies just before packet [k] goes out.  Losing a mirror, the
   library must either finish the script degraded or — when the victim
   was the last mirror — roll the transaction back, raise
   All_mirrors_lost, and stay usable.  Losing the checkpoint target must
   cost nothing: checkpointing is an optimisation, never a durability
   requirement, so checkpoint operations degrade to typed no-ops
   (Target_lost is caught by the scenario) while every commit lands. *)

(* A transaction that moves no data: declaring and committing one range
   forces a plan against every mirror, so a death that fell between
   plans (a cut mid-plan is only noticed at the next plan creation)
   surfaces here rather than lingering undetected. *)
let probe env =
  match P.segments env.t with
  | [] -> ()
  | seg :: _ ->
      let txn = P.begin_transaction env.t in
      P.set_range txn seg ~off:0 ~len:64;
      P.commit txn;
      (* Group-commit engines stage the probe instead of planning; the
         drain forces the convoy so a mid-plan death surfaces here too
         (no-op for eager engines — the queue is empty). *)
      P.flush env.t

(* The node a bystander victim names in [env], and what its death is
   called; [Invalid_argument] when [env] has no such node. *)
let bystander env = function
  | Mirror i -> (
      match List.nth_opt (P.mirrors env.t) i with
      | Some mi -> (mi.P.node_id, "mirror death")
      | None -> invalid_arg "Crashpoint.sweep: mirror index out of range")
  | Ckpt_target -> (
      match env.ckpt with
      | Some s -> (Node.id (Netram.Server.node s), "checkpoint-target death")
      | None -> invalid_arg "Crashpoint.sweep: scenario has no checkpoint target")
  | Primary | Recovering _ -> invalid_arg "Crashpoint.run_node_point: the victim is not a bystander"

let run_node_point ?(attach = fun (_ : env) -> ()) scenario ~pre ~checkpoints ~post ~k ~victim =
  let env = scenario.make () in
  attach env;
  let victim_node, what = bystander env victim in
  (* Only a mirror's death may cost the library its last mirror. *)
  let all_lost f =
    match f () with () -> false | exception P.All_mirrors_lost when victim <> Ckpt_target -> true
  in
  let epoch_before = P.epoch env.t in
  let sent = ref 0 in
  let killed = ref false in
  P.set_packet_hook env.t
    (Some
       (fun () ->
         if !sent = k && not !killed then begin
           killed := true;
           ignore (Cluster.crash_node env.cluster victim_node Cluster.Failure.Hardware_error)
         end;
         incr sent));
  let lost = all_lost (fun () -> scenario.script env ~checkpoint:(fun () -> ())) in
  P.set_packet_hook env.t None;
  let lost = lost || all_lost (fun () -> probe env) in
  let image =
    match classify ~pre ~checkpoints ~post (signature env.t) with
    | Some img -> img
    | None ->
        violation "%s: %s at packet %d left the database in an illegal state" scenario.label what k
  in
  (* Losing the target must never cost committed data: the script ran
     every commit, so the surviving database must be the post-image. *)
  if victim = Ckpt_target && !killed && image <> Post then
    violation "%s: checkpoint-target death at packet %d lost committed data (image %s)"
      scenario.label k (image_label image);
  let recovery_us =
    if lost then begin
      (* The guard must have closed the wounded transaction: the
         library is still usable, and a fresh mirror restores
         recoverability. *)
      P.abort (P.begin_transaction env.t);
      let t0 = Clock.now env.clock in
      P.attach_mirror env.t ~server:(Netram.Server.create (Cluster.node env.cluster env.spare));
      Time.to_us (Clock.now env.clock - t0)
    end
    else 0.
  in
  let epoch_after = P.epoch env.t in
  check_epoch scenario.label ~epoch_before ~epoch_after;
  let mismatches =
    check_clean_mirrors scenario.label env.t ~where:(Printf.sprintf "after %s at packet %d" what k)
  in
  {
    index = k;
    crashed = !killed;
    image;
    replayed_records = 0;
    replayed_bytes = 0;
    recovery_us;
    epoch_before;
    epoch_after;
    mismatches;
  }

(* ------------------------------------------------------------------ *)
(* Recovering-node point: the script runs whole, the primary dies, and
   recovery from the checkpoint target starts on one node — which dies
   just before recovery packet [k].  A second recovery on another node
   must still rebuild the committed image: recovery itself may be
   interrupted at any packet without costing a committed byte. *)

(* The first and second recovery nodes: the checkpoint target's own
   node (adopting its slot in place) and the spare (reading the
   mirror), in the order [in_place_first] picks. *)
let recovery_nodes env ~in_place_first =
  let target =
    match env.ckpt with
    | Some s -> Node.id (Netram.Server.node s)
    | None -> invalid_arg "Crashpoint.sweep: the recovering victim needs a checkpoint target"
  in
  if in_place_first then (target, env.spare) else (env.spare, target)

let recover_from_checkpoint ?hook ?(recovery_sink = Trace.Sink.noop) ?on_repair env ~local =
  let checkpoint =
    match env.ckpt with
    | Some s when Netram.Server.is_alive s -> Some (P.Ram_source s)
    | _ -> None
  in
  P.recover_replicated ~config:(P.config env.t) ~sink:recovery_sink ?hook ?on_repair ?checkpoint
    ~cluster:env.cluster ~local ~servers:env.servers ()

(* The script run whole, then the primary's death: [post] is the only
   legal image, and the first recovery's packet count bounds the
   sweep. *)
let recovery_dry_run scenario ~in_place_first =
  let env = scenario.make () in
  scenario.script env ~checkpoint:(fun () -> ());
  let post = signature env.t in
  ignore (Cluster.crash_node env.cluster env.primary Cluster.Failure.Software_error);
  let first, _ = recovery_nodes env ~in_place_first in
  let count = ref 0 in
  ignore (recover_from_checkpoint ~hook:(fun () -> incr count) env ~local:first);
  (!count, post)

let run_recovering_point ?(attach = fun (_ : env) -> ()) ?recovery_sink scenario ~in_place_first
    ~post ~k ~total =
  let env = scenario.make () in
  attach env;
  scenario.script env ~checkpoint:(fun () -> ());
  let epoch_before = P.epoch env.t in
  ignore (Cluster.crash_node env.cluster env.primary Cluster.Failure.Software_error);
  let first, second = recovery_nodes env ~in_place_first in
  let replayed = ref 0 and bytes = ref 0 in
  let on_repair ~name:_ ~len =
    incr replayed;
    bytes := !bytes + len
  in
  let sent = ref 0 in
  let hook () = if !sent >= k then raise Crash else incr sent in
  let t0 = Clock.now env.clock in
  let t2, crashed =
    match recover_from_checkpoint ~hook ?recovery_sink ~on_repair env ~local:first with
    | t2 -> (t2, false)
    | exception Crash ->
        ignore (Cluster.crash_node env.cluster first Cluster.Failure.Hardware_error);
        (recover_from_checkpoint ?recovery_sink ~on_repair env ~local:second, true)
  in
  let recovery_us = Time.to_us (Clock.now env.clock - t0) in
  if signature t2 <> post then
    violation "%s: recovering node died at recovery packet %d/%d and committed data was lost"
      scenario.label k total;
  let epoch_after = P.epoch t2 in
  check_epoch scenario.label ~epoch_before ~epoch_after;
  let mismatches =
    check_clean_mirrors scenario.label t2
      ~where:(Printf.sprintf "after recovery cut at packet %d" k)
  in
  {
    index = k;
    crashed;
    image = Post;
    replayed_records = !replayed;
    replayed_bytes = !bytes;
    recovery_us;
    epoch_before;
    epoch_after;
    mismatches;
  }

(* ------------------------------------------------------------------ *)

let sweep ?(victim = Primary) ?postmortem scenario =
  (* A victim the scenario has no node for is refused on a fresh env,
     before the dry run spends a whole script on it. *)
  (match victim with
  | Primary -> ()
  | Recovering { in_place_first } -> ignore (recovery_nodes (scenario.make ()) ~in_place_first)
  | Mirror _ | Ckpt_target -> ignore (bystander (scenario.make ()) victim));
  let total, pre, checkpoints, post =
    match victim with
    | Recovering { in_place_first } ->
        let total, post = recovery_dry_run scenario ~in_place_first in
        (total, post, [], post)
    | _ -> dry_run scenario
  in
  let run_point ?attach ?recovery_sink k =
    match victim with
    | Primary -> run_primary_point ?attach ?recovery_sink scenario ~pre ~checkpoints ~post ~k ~total
    | Recovering { in_place_first } ->
        run_recovering_point ?attach ?recovery_sink scenario ~in_place_first ~post ~k ~total
    | victim -> run_node_point ?attach scenario ~pre ~checkpoints ~post ~k ~victim
  in
  let points =
    List.init (total + 1) (fun k ->
        match postmortem with
        | None -> run_point k
        | Some dir ->
            (* Each point flies its own recorder: a fresh ring and a
               fresh monitor (the engine is rebuilt from scratch, so
               carried-over monitor state would be stale), dumped only
               when this point's oracle — or the monitor itself —
               trips. *)
            let f = Forensics.create () in
            let engine = ref None in
            let attach env =
              engine := Some env.t;
              Forensics.attach f env.t
            in
            let dump cause =
              ignore
                (Forensics.dump f
                   ~dir:
                     (Filename.concat dir
                        (Printf.sprintf "%s-%s-p%d" scenario.label (victim_label victim) k))
                   ~cause
                   ?stats:(Option.map P.stats !engine)
                   ())
            in
            let point =
              try run_point ~attach ~recovery_sink:(Forensics.sink f) k
              with Oracle_violation msg as e ->
                dump msg;
                raise e
            in
            (match Forensics.alerts f with
            | [] -> ()
            | a :: _ ->
                let msg =
                  Printf.sprintf "%s: protocol monitor alert at point %d: %s" scenario.label k
                    (Format.asprintf "%a" Trace.Monitor.pp_alert a)
                in
                dump msg;
                raise (Oracle_violation msg));
            point)
  in
  let count f = List.length (List.filter f points) in
  {
    label = scenario.label;
    victim;
    total_packets = total;
    points;
    old_images = count (fun p -> p.image = Pre);
    new_images = count (fun p -> p.image = Post);
    repaired = count (fun p -> p.replayed_records > 0);
  }

(* ------------------------------------------------------------------ *)
(* Canned scenarios                                                    *)

let table_names = [ "accounts"; "branches"; "history" ]

let small_config = { P.default_config with undo_capacity = 128 * 1024; max_segments = 8 }

let seed_segment t name ~size =
  let seg = P.malloc t ~name ~size in
  let salt = String.length name * 31 in
  P.write t seg ~off:0 (Bytes.init size (fun i -> Char.chr ((i * 7 + salt) land 0xff)));
  seg

(* The canned scenarios' world: a {!Testbed.make} cluster with 2 MB per
   node and the spare last, every node on its own power supply so
   failures are independent. *)
let make_env ?(config = small_config) ?(extras = []) ~mirrors () =
  let b = Testbed.make ~config ~dram_mb:2 ~extras ~spare:true ~mirrors () in
  {
    clock = b.clock;
    cluster = b.cluster;
    servers = b.servers;
    primary = 0;
    spare = Cluster.size b.cluster - 1;
    ckpt = None;
    t = b.perseas;
  }

let commit_scenario ?(mirrors = 1) ?(ranges = 3) ?(range_len = 256) ?(seg_size = 16384) () =
  if mirrors < 1 then invalid_arg "Crashpoint.commit_scenario: at least one mirror";
  if ranges < 1 then invalid_arg "Crashpoint.commit_scenario: at least one range";
  if range_len < 1 || range_len + ((ranges - 1) / 3 * 1024) > seg_size then
    invalid_arg "Crashpoint.commit_scenario: ranges do not fit the segments";
  let make () =
    let env = make_env ~mirrors () in
    List.iter (fun name -> ignore (seed_segment env.t name ~size:seg_size)) table_names;
    P.init_remote_db env.t;
    env
  in
  (* One debit-credit-style transaction: update a slice of each table
     under a single commit, so the sweep cuts both the undo pushes and
     the commit propagation at every packet. *)
  let script env ~checkpoint:_ =
    let txn = P.begin_transaction env.t in
    for j = 0 to ranges - 1 do
      let s = Option.get (P.segment env.t (List.nth table_names (j mod 3))) in
      let off = j / 3 * 1024 in
      P.set_range txn s ~off ~len:range_len;
      P.write env.t s ~off (Bytes.make range_len (Char.chr (Char.code 'A' + j)))
    done;
    P.commit txn
  in
  { label = Printf.sprintf "commit-%dm-%dr" mirrors ranges; make; script }

(* Overlapping, adjacent and duplicate declarations under one commit:
   the redundancy-elision stress scenario.  With [elision] (default)
   the sweep proves first-write-only logging and coalesced propagation
   recover to the same legal images as the naive path ([elision:false])
   at every packet boundary — the two runs' image sets are identical
   because elision never changes what a legal image {e is}, only how
   many packets it takes to reach one. *)
let overlap_scenario ?(mirrors = 1) ?(elision = true) ?(seg_size = 16384) () =
  if mirrors < 1 then invalid_arg "Crashpoint.overlap_scenario: at least one mirror";
  if seg_size < 2048 then invalid_arg "Crashpoint.overlap_scenario: segment too small";
  let make () =
    let env = make_env ~config:{ small_config with P.redundancy_elision = elision } ~mirrors () in
    ignore (seed_segment env.t "db" ~size:seg_size);
    P.init_remote_db env.t;
    env
  in
  let script env ~checkpoint =
    let seg = Option.get (P.segment env.t "db") in
    let declare txn ~off ~len fill =
      P.set_range txn seg ~off ~len;
      P.write env.t seg ~off (Bytes.make len fill)
    in
    (* A committed warm-up range, so crash points can also land between
       two commits of the same epoch-tagged log. *)
    let txn = P.begin_transaction env.t in
    declare txn ~off:32 ~len:200 'w';
    P.commit txn;
    checkpoint ();
    let txn = P.begin_transaction env.t in
    declare txn ~off:0 ~len:256 'A';
    declare txn ~off:128 ~len:256 'B' (* overlaps the first *);
    declare txn ~off:384 ~len:64 'C' (* adjacent to the second *);
    declare txn ~off:0 ~len:256 'D' (* exact duplicate declaration *);
    declare txn ~off:100 ~len:100 'E' (* fully covered *);
    declare txn ~off:1027 ~len:70 'F' (* disjoint, unaligned *);
    P.commit txn
  in
  {
    label = Printf.sprintf "overlap-%dm-%s" mirrors (if elision then "elided" else "naive");
    make;
    script;
  }

let attach_scenario ?(mirrors = 1) ?(seg_size = 8192) () =
  if mirrors < 1 then invalid_arg "Crashpoint.attach_scenario: at least one mirror";
  let make () =
    let env = make_env ~extras:[ "joiner" ] ~mirrors () in
    let t = env.t in
    let seg = seed_segment t "db" ~size:seg_size in
    P.init_remote_db t;
    (* A committed transaction, so old undo records exist when the
       joiner's resync is cut short. *)
    let txn = P.begin_transaction t in
    P.set_range txn seg ~off:0 ~len:128;
    P.write t seg ~off:0 (Bytes.make 128 'z');
    P.commit txn;
    let joiner = Netram.Server.create (Cluster.node env.cluster (mirrors + 1)) in
    (* The joiner comes FIRST in the recovery candidate list: a crash
       during its resync can leave it with a valid magic and an
       epoch tied with the settled mirrors but a torn segment table,
       and recovery must skip such a candidate, not abort on it. *)
    { env with servers = joiner :: env.servers }
  in
  let script env ~checkpoint:_ = P.attach_mirror env.t ~server:(List.hd env.servers) in
  { label = Printf.sprintf "attach-%dm" mirrors; make; script }

let concurrent_scenario ?(mirrors = 1) ?(clients = 3) ?(seg_size = 16384) () =
  if mirrors < 1 then invalid_arg "Crashpoint.concurrent_scenario: at least one mirror";
  if clients < 2 then invalid_arg "Crashpoint.concurrent_scenario: at least two clients";
  let config = { small_config with P.group_commit = clients } in
  let make () =
    let env = make_env ~config ~mirrors () in
    List.iter (fun name -> ignore (seed_segment env.t name ~size:seg_size)) table_names;
    P.init_remote_db env.t;
    env
  in
  (* [clients] transactions from distinct clients flush as one batch
     while one late client stays OPEN across that flush (declared but
     not yet written — its bytes must not travel with its bystanders).
     The late client then commits alone and the script drains, so the
     sweep crosses two group flushes with ≥2 transactions in flight:
     pre, the post-batch checkpoint and post are the only legal
     images, which is exactly per-transaction atomicity under
     concurrency.  Offsets start at 1024 so no line collides with the
     mirror-victim probe's [0,64) range on the first table. *)
  let script env ~checkpoint =
    let seg j = Option.get (P.segment env.t (List.nth table_names (j mod 3))) in
    let range c j = (seg (c + j), 1024 * (c + 1), 192) in
    let payload c = Bytes.make 192 (Char.chr (Char.code 'a' + c)) in
    let txns =
      List.init clients (fun c -> P.begin_transaction ~client:(Printf.sprintf "c%d" c) env.t)
    in
    let late = P.begin_transaction ~client:"late" env.t in
    (* Interleaved declarations: every client's first range, then the
       late client's, then every client's second. *)
    List.iteri
      (fun c txn ->
        let s, off, len = range c 0 in
        P.set_range txn s ~off ~len)
      txns;
    let late_seg, late_off, late_len = (seg 0, 1024 * (clients + 1), 192) in
    P.set_range late late_seg ~off:late_off ~len:late_len;
    List.iteri
      (fun c txn ->
        let s, off, len = range c 1 in
        P.set_range txn s ~off ~len)
      txns;
    List.iteri
      (fun c _ ->
        let s, off, len = range c 0 in
        ignore len;
        P.write env.t s ~off (payload c);
        let s, off, len = range c 1 in
        ignore len;
        P.write env.t s ~off (payload c))
      txns;
    (* The batch flushes on the last commit; [late] rides across it. *)
    List.iter P.commit txns;
    checkpoint ();
    P.write env.t late_seg ~off:late_off (payload clients);
    P.commit late;
    P.flush env.t
  in
  { label = Printf.sprintf "concurrent-%dm-%dc" mirrors clients; make; script }

(* Commits interleaved with every phase of a fuzzy checkpoint — a full
   take, then a second checkpoint cut open across three commits (start,
   a budgeted step, finalize).  The sweep thus crashes its victim at
   every packet of slot zeroing, image shipping, finalize re-ship and
   scrub, the header/magic/directory publication sequence, and the
   commit traffic in between — and the checkpointed engine's recovery
   (the primary sweep passes the surviving target as a restore source)
   must hold the same zero-committed-data-loss oracle as the seed
   scenarios.  Commits rotate across the three tables so at any cut
   some segments are restorable from the checkpoint while others must
   come from the repaired mirror. *)
let checkpoint_scenario ?(mirrors = 1) ?(seg_size = 8192) () =
  if mirrors < 1 then invalid_arg "Crashpoint.checkpoint_scenario: at least one mirror";
  if seg_size < 4096 then invalid_arg "Crashpoint.checkpoint_scenario: segment too small";
  let make () =
    let env = make_env ~extras:[ "ckpt" ] ~mirrors () in
    List.iter (fun name -> ignore (seed_segment env.t name ~size:seg_size)) table_names;
    P.init_remote_db env.t;
    let ckpt = Netram.Server.create (Cluster.node env.cluster (mirrors + 1)) in
    P.Checkpoint.set_ram_target env.t ~server:ckpt;
    { env with ckpt = Some ckpt }
  in
  let script env ~checkpoint =
    (* Checkpoint operations degrade, commits do not: a dead target
       surfaces as Target_lost (swallowed here) and later phases of the
       same checkpoint are skipped — the guards make the script total
       for the target-victim sweep. *)
    let ck f = try f () with P.Checkpoint.Target_lost _ -> () in
    let have () = P.Checkpoint.target_set env.t in
    let inflight () = P.Checkpoint.in_flight env.t in
    let put j fill =
      let seg = Option.get (P.segment env.t (List.nth table_names (j mod 3))) in
      let off = 1024 * ((j / 3) + 1) in
      let txn = P.begin_transaction env.t in
      P.set_range txn seg ~off ~len:192;
      P.write env.t seg ~off (Bytes.make 192 fill);
      P.commit txn
    in
    put 0 'a';
    checkpoint ();
    if have () then ck (fun () -> ignore (P.Checkpoint.take env.t));
    put 1 'b';
    checkpoint ();
    if have () then ck (fun () -> P.Checkpoint.start env.t);
    put 2 'c';
    checkpoint ();
    if inflight () then ck (fun () -> ignore (P.Checkpoint.step env.t ~budget:4096));
    put 3 'd';
    checkpoint ();
    if inflight () then ck (fun () -> ignore (P.Checkpoint.finalize env.t));
    put 4 'e'
  in
  { label = Printf.sprintf "checkpoint-%dm" mirrors; make; script }

(* A checkpointed database with a real tail: three multi-chunk tables,
   a checkpoint, then commits after the cut into a few chunks — one of
   them spanning a chunk boundary — so a checkpointed recovery adopts
   most chunks from the slot and fetches the rest from the mirror, and
   an aborted transaction whose before-image recovery replays.  The
   {!Recovering} victims cut that recovery; every commit declares its
   image, so the other victims may cut the script itself. *)
let recovery_scenario ?(mirrors = 1) ?(seg_size = 8192) () =
  if mirrors < 1 then invalid_arg "Crashpoint.recovery_scenario: at least one mirror";
  if seg_size < 4096 then invalid_arg "Crashpoint.recovery_scenario: segment too small";
  let make () =
    let env = make_env ~extras:[ "ckpt" ] ~mirrors () in
    List.iter (fun name -> ignore (seed_segment env.t name ~size:seg_size)) table_names;
    P.init_remote_db env.t;
    let ckpt = Netram.Server.create (Cluster.node env.cluster (mirrors + 1)) in
    P.Checkpoint.set_ram_target env.t ~server:ckpt;
    { env with ckpt = Some ckpt }
  in
  let put name ~off ~len fill env =
    let seg = Option.get (P.segment env.t name) in
    let txn = P.begin_transaction env.t in
    P.set_range txn seg ~off ~len;
    P.write env.t seg ~off (Bytes.make len fill);
    P.commit txn
  in
  let script env ~checkpoint =
    put "accounts" ~off:64 ~len:128 'a' env;
    (* A target that dies during the take costs the checkpoint, never a
       commit (the {!Ckpt_target} sweep). *)
    (try ignore (P.Checkpoint.take env.t) with P.Checkpoint.Target_lost _ -> ());
    checkpoint ();
    put "accounts" ~off:1000 ~len:64 'b' env;
    checkpoint ();
    put "branches" ~off:3072 ~len:128 'c' env;
    checkpoint ();
    put "history" ~off:4096 ~len:200 'd' env;
    (* An aborted transaction leaves its before-image in the mirror's
       log at the current epoch: recovery's repair replays it (a no-op
       on the bytes), so the sweep cuts the repair too. *)
    let seg = Option.get (P.segment env.t "accounts") in
    let txn = P.begin_transaction env.t in
    P.set_range txn seg ~off:2048 ~len:64;
    P.write env.t seg ~off:2048 (Bytes.make 64 'e');
    P.abort txn
  in
  { label = Printf.sprintf "recovery-%dm" mirrors; make; script }

(* ------------------------------------------------------------------ *)
(* Shard scenarios: the same sweeps, pointed at one shard of a sharded
   cluster.  The env carries the VICTIM shard's world (its clock,
   cluster, mirrors, spare and engine — the hook and the crash land
   there); the script reaches the rest of the cluster through the
   router captured by [make]. *)

let shard_world = "Crashpoint: shard scenario script ran before make"

(* Seed the three tables on every shard of a fresh 2-shard bed and
   commit one warm-up transaction per shard, so each shard has undo
   history and a published epoch before the swept work starts. *)
let make_shard_bed ~config ~mirrors ~seg_size =
  let bed = Sharding.make_bed ~config ~dram_mb:2 ~mirrors ~shards:2 () in
  for s = 0 to 1 do
    let t = P.Shard.db bed.Sharding.router s in
    List.iter (fun name -> ignore (seed_segment t name ~size:seg_size)) table_names;
    P.init_remote_db t;
    let seg = Option.get (P.segment t "accounts") in
    let txn = P.begin_transaction t in
    P.set_range txn seg ~off:0 ~len:128;
    P.write t seg ~off:0 (Bytes.make 128 (Char.chr (Char.code 'w' + s)));
    P.commit txn
  done;
  (* Group-commit configs staged the warm-ups; land them so the swept
     script starts from a quiesced, fenced cluster. *)
  P.Shard.fence bed.Sharding.router;
  bed

let shard_env bed ~victim =
  let vb = bed.Sharding.shard_beds.(victim) in
  {
    clock = vb.Sharding.sb_clock;
    cluster = vb.Sharding.sb_cluster;
    servers = vb.Sharding.sb_servers;
    primary = 0;
    spare = vb.Sharding.sb_spare;
    ckpt = None;
    t = P.Shard.db bed.Sharding.router victim;
  }

(* A single-shard commit swept at every packet while the OTHER shard
   also commits: the other shard's packets never hit the victim's hook
   (distinct clusters, distinct NICs), so the sweep proves a shard
   primary's death at any packet of its own commit is recovered from
   its own mirrors with no committed byte lost — and without the other
   shard's traffic ever entering the blast radius. *)
let shard_commit_scenario ?(mirrors = 1) ?(seg_size = 8192) () =
  if mirrors < 1 then invalid_arg "Crashpoint.shard_commit_scenario: at least one mirror";
  let world = ref None in
  let victim = 1 in
  let make () =
    let bed = make_shard_bed ~config:small_config ~mirrors ~seg_size in
    world := Some bed.Sharding.router;
    shard_env bed ~victim
  in
  let script env ~checkpoint =
    let sh = match !world with Some sh -> sh | None -> failwith shard_world in
    (* The bystander shard commits first — zero packets on the hook. *)
    let t0 = P.Shard.db sh 0 in
    let seg = Option.get (P.segment t0 "branches") in
    let txn = P.begin_transaction t0 in
    P.set_range txn seg ~off:1024 ~len:192;
    P.write t0 seg ~off:1024 (Bytes.make 192 'o');
    P.commit txn;
    checkpoint ();
    (* The swept transaction: a multi-range commit on the victim. *)
    let txn = P.begin_transaction env.t in
    List.iteri
      (fun j name ->
        let s = Option.get (P.segment env.t name) in
        let off = 1024 * (j + 1) in
        P.set_range txn s ~off ~len:256;
        P.write env.t s ~off (Bytes.make 256 (Char.chr (Char.code 'A' + j))))
      table_names;
    P.commit txn
  in
  { label = Printf.sprintf "shard-commit-%dm" mirrors; make; script }

(* The phase-switch fence swept at every packet: two staged commits on
   the victim ride a group-commit convoy out through [Shard.fence],
   then a queued cross-shard transaction drains through a single-master
   phase (fence, sub-commits on both shards, fence).  Cutting the
   victim's packets anywhere across that sequence must recover to pre,
   the post-convoy checkpoint, or post — convoys and the drained cross
   transaction's victim half are atomic at every boundary. *)
let shard_fence_scenario ?(mirrors = 1) ?(seg_size = 8192) () =
  if mirrors < 1 then invalid_arg "Crashpoint.shard_fence_scenario: at least one mirror";
  let world = ref None in
  let victim = 1 in
  let make () =
    let config = { small_config with P.group_commit = 4 } in
    let bed = make_shard_bed ~config ~mirrors ~seg_size in
    world := Some bed.Sharding.router;
    shard_env bed ~victim
  in
  let script env ~checkpoint =
    let sh = match !world with Some sh -> sh | None -> failwith shard_world in
    let stage name fill =
      let seg = Option.get (P.segment env.t name) in
      let txn = P.begin_transaction env.t in
      P.set_range txn seg ~off:2048 ~len:192;
      P.write env.t seg ~off:2048 (Bytes.make 192 fill);
      P.commit txn (* staged: group commit holds it for the convoy *)
    in
    stage "accounts" 'p';
    stage "branches" 'q';
    P.Shard.fence sh;
    checkpoint ();
    ignore
      (P.Shard.submit_cross sh ~shards:[ 0; 1 ] (fun get ->
           List.iter
             (fun sid ->
               let db, txn = get sid in
               let seg = Option.get (P.segment db "history") in
               P.set_range txn seg ~off:4096 ~len:128;
               P.write db seg ~off:4096 (Bytes.make 128 'x'))
             [ 0; 1 ]));
    ignore (P.Shard.drain sh)
  in
  { label = Printf.sprintf "shard-fence-%dm" mirrors; make; script }

(* ------------------------------------------------------------------ *)
(* The scenarios by name                                               *)

let named ?ranges ?range_len ~mirrors () =
  let primary s = (s, [ Primary ]) in
  [
    ("commit", primary (commit_scenario ~mirrors ?ranges ?range_len ()));
    ("attach", primary (attach_scenario ~mirrors ()));
    ("overlap", primary (overlap_scenario ~mirrors ()));
    ("overlap-naive", primary (overlap_scenario ~mirrors ~elision:false ()));
    ("concurrent", primary (concurrent_scenario ~mirrors ()));
    ("checkpoint", primary (checkpoint_scenario ~mirrors ()));
    ("shard-commit", primary (shard_commit_scenario ~mirrors ()));
    ("shard-fence", primary (shard_fence_scenario ~mirrors ()));
    ( "recovery",
      ( recovery_scenario ~mirrors (),
        [ Recovering { in_place_first = true }; Recovering { in_place_first = false } ] ) );
  ]

let scenario_names = List.map fst (named ~mirrors:1 ())

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)

let outcome p = image_label p.image ^ if p.replayed_records > 0 then "+repair" else ""

let csv_header =
  [
    "scenario";
    "victim";
    "point";
    "crashed";
    "outcome";
    "records replayed";
    "bytes replayed";
    "recovery (us)";
    "epoch before";
    "epoch after";
    "mismatches";
  ]

let report_rows (r : report) =
  List.map
    (fun p ->
      [
        r.label;
        victim_label r.victim;
        string_of_int p.index;
        (if p.crashed then "yes" else "no");
        outcome p;
        string_of_int p.replayed_records;
        string_of_int p.replayed_bytes;
        Printf.sprintf "%.2f" p.recovery_us;
        Int64.to_string p.epoch_before;
        Int64.to_string p.epoch_after;
        string_of_int p.mismatches;
      ])
    r.points
