(* Harness.Costmodel: the paper's analytic packets/bytes-per-operation
   equations must match the NIC counters *exactly* on sequential
   disjoint debit-credit — across mirror counts, redundancy elision
   on/off, eager vs grouped commit and with or without a checkpoint
   target attached — and a seeded mutation (a model
   parameterised differently from the engine, or a forged packet that
   the engine never sent) must surface as a typed drift alert. *)

open Sim
module P = Perseas
module Cm = Harness.Costmodel
module T = Harness.Testbed

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Zero drift on the eager/grouped disjoint matrix                     *)

let run_cell ~mirrors ~elision ~group ~ckpt ~txns =
  let config =
    { P.default_config with P.redundancy_elision = elision; group_commit = group }
  in
  let bed = T.make ~config ~extras:(if ckpt then [ "ckpt" ] else []) ~mirrors () in
  let t = bed.T.perseas in
  let module W = Workloads.Debit_credit.Make (P.Engine) in
  let rng = Rng.create 7 in
  let db = W.setup t ~params:Workloads.Debit_credit.small_params in
  let nic = Cluster.nic bed.T.cluster in
  (* With a checkpoint published every commit unit also appends its
     runs to the dirty-chunk list; the model numbers them from the
     segment sizes. *)
  let tracking =
    if ckpt then begin
      P.Checkpoint.set_ram_target t
        ~server:(Netram.Server.create (Cluster.node bed.T.cluster (mirrors + 1)));
      ignore (P.Checkpoint.take t);
      Some (List.map P.segment_size (P.segments t))
    end
    else None
  in
  (* Attach after setup and reset the counters at the same point: the
     model only sees the steady-state window, so its settled total must
     equal the NIC delta over that window. *)
  let model = Cm.create ?tracking ~config:(P.config t) ~params:(Sci.Nic.params nic) () in
  P.set_sink t (Cm.sink model);
  Sci.Nic.reset_counters nic;
  for _ = 1 to txns do
    W.transaction db rng
  done;
  (* Drain anything still staged under group commit so every unit has
     fenced and the window's account can close. *)
  P.flush t;
  check_bool "workload stayed consistent" true (W.consistent db);
  (model, Sci.Nic.counters nic)

let test_zero_drift () =
  let cells =
    List.concat_map
      (fun mirrors ->
        List.concat_map
          (fun elision ->
            List.concat_map
              (fun group -> List.map (fun ckpt -> (mirrors, elision, group, ckpt)) [ false; true ])
              [ 1; 8 ])
          [ true; false ])
      [ 1; 2; 3 ]
  in
  List.iter
    (fun (mirrors, elision, group, ckpt) ->
      let label = Printf.sprintf "m%d elision=%b group=%d ckpt=%b" mirrors elision group ckpt in
      let model, c = run_cell ~mirrors ~elision ~group ~ckpt ~txns:200 in
      (* The list appends are really there to be predicted. *)
      if ckpt then
        check_bool (label ^ ": list appends predicted") true
          (List.exists
             (fun (cls, pred, _) -> cls = "segmeta" && Cm.cost_packets pred > 0)
             (Cm.classes model));
      check_int (label ^ ": zero drift") 0 (Cm.drift_count model);
      check_int (label ^ ": nothing pending") 0 (Cm.pending model);
      check_int (label ^ ": no unattributed packets") 0
        (Cm.cost_packets (Cm.unattributed model));
      check_bool (label ^ ": commit units settled") true (Cm.units_checked model > 0);
      let pred = Cm.predicted_total model in
      check_int (label ^ ": 64B packets exact") c.Sci.Nic.packets64 pred.Cm.pkts64;
      check_int (label ^ ": 16B packets exact") c.Sci.Nic.packets16 pred.Cm.pkts16;
      check_int (label ^ ": bytes exact") c.Sci.Nic.bytes_written pred.Cm.bytes;
      (* What the model measured is the packet counts of the pieces it
         folded: they too add up to the NIC's. *)
      let measured = List.fold_left (fun acc (_, _, m) -> acc + Cm.cost_packets m) 0 (Cm.classes model) in
      check_int (label ^ ": pieces carry every packet") (c.Sci.Nic.packets64 + c.Sci.Nic.packets16) measured)
    cells

(* ------------------------------------------------------------------ *)
(* Seeded mutation 1: model parameterised against the engine           *)

(* A model built with [optimized_memcpy] flipped relative to the engine
   re-derives a different packetisation for the same 224-byte undo
   record and 200-byte commit run (widened 64-byte lines vs a raw
   3x64+2x16 split), so the very first fence must raise drift. *)
let test_flipped_memcpy_drifts () =
  let bed = T.make ~mirrors:1 () in
  let t = bed.T.perseas in
  let nic = Cluster.nic bed.T.cluster in
  let seg = P.malloc t ~name:"mut" ~size:4096 in
  P.init_remote_db t;
  let engine_cfg = P.config t in
  check_bool "engine default widens" true engine_cfg.P.optimized_memcpy;
  let model =
    Cm.create
      ~config:{ engine_cfg with P.optimized_memcpy = not engine_cfg.P.optimized_memcpy }
      ~params:(Sci.Nic.params nic) ()
  in
  P.set_sink t (Cm.sink model);
  let txn = P.begin_transaction t in
  P.set_range txn seg ~off:8 ~len:200;
  P.write t seg ~off:8 (Bytes.make 200 'x');
  P.commit txn;
  check_bool "parameter mutation caught as drift" true (Cm.drift_count model > 0);
  List.iter
    (fun (d : Cm.drift) ->
      check_bool "drift names the commit unit" true (d.Cm.d_unit <> "");
      check_bool "predicted <> measured" true (d.Cm.d_predicted <> d.Cm.d_measured))
    (Cm.alerts model)

(* ------------------------------------------------------------------ *)
(* Seeded mutation 2: forged packets the engine never sent             *)

(* Replay a hand-forged convoy straight into the model: one 64-byte
   data piece plus a fence for a convoy no transaction ever staged.
   The model's prediction for that unit is fence-only, so the forged
   data piece is a byte-level mismatch — a typed alert, not a crash
   and not silence. *)
let test_forged_packet_drifts () =
  let model = Cm.create ~config:P.default_config ~params:Sci.Params.default () in
  let piece ~tag ~full64 ~part16 ~bytes =
    {
      Trace.Event.name = "piece";
      cat = "sci";
      at = Time.us 1.;
      args =
        [ ("tag", tag); ("full64", string_of_int full64); ("part16", string_of_int part16);
          ("bytes", string_of_int bytes); ("dir", "write"); ("op", "flush_convoy");
          ("convoy", "c999"); ("node", "0") ];
    }
  in
  Cm.event model (piece ~tag:"data" ~full64:1 ~part16:0 ~bytes:64);
  check_int "no alert before the fence" 0 (Cm.drift_count model);
  check_int "forged unit is pending" 1 (Cm.pending model);
  Cm.event model (piece ~tag:"fence" ~full64:0 ~part16:1 ~bytes:8);
  check_int "fence settles the forged unit" 1 (Cm.units_checked model);
  check_int "forged packet caught as drift" 1 (Cm.drift_count model);
  (match Cm.alerts model with
  | [ d ] ->
      check (Alcotest.string) "drift names the forged convoy" "c999" d.Cm.d_unit;
      check_int "measured the forged bytes" (64 + 8) d.Cm.d_measured.Cm.bytes;
      check_bool "prediction was fence-only" true (d.Cm.d_predicted.Cm.bytes < d.Cm.d_measured.Cm.bytes)
  | _ -> Alcotest.fail "expected exactly one drift alert");
  check_int "ledger settled, nothing pending" 0 (Cm.pending model)

let suite =
  [
    Alcotest.test_case "zero drift: mirrors x elision x group matrix" `Quick test_zero_drift;
    Alcotest.test_case "mutation: flipped optimized_memcpy drifts" `Quick
      test_flipped_memcpy_drifts;
    Alcotest.test_case "mutation: forged convoy packet drifts" `Quick
      test_forged_packet_drifts;
  ]
