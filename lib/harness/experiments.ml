open Sim

let results_dir = "results"
let csv_path name = Filename.concat results_dir (name ^ ".csv")

let kb n = n * 1024
let mb n = n * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Workload mixes                                                      *)

let debit_credit = Measure.Debit_credit Workloads.Debit_credit.default_params
let small_debit_credit = Measure.Debit_credit Workloads.Debit_credit.small_params
let order_entry = Measure.Order_entry Workloads.Order_entry.default_params

(* Synthetic windows draw from a per-size stream, so each size's run is
   independent of the others. *)
let synthetic inst ~db_size ~tx_size =
  Measure.workload ~seed:(42 + tx_size) inst (Measure.Synthetic { db_size; tx_size })

(* ------------------------------------------------------------------ *)
(* F5: SCI remote write latency vs data size                           *)

let fig5 () =
  let p = Sci.Params.default in
  (* Two series, as the figure's "WordOffsetN" naming implies: stores
     starting at the first word of a buffer, and stores starting at the
     last word (so every size crosses a buffer boundary). *)
  let rows =
    List.init 50 (fun i ->
        let size = 4 * (i + 1) in
        let full64, part16 = Sci.Packet.counts p ~off:0 ~len:size in
        let lat0 = Sci.Model.write_range p ~off:0 ~len:size () in
        let lat15 = Sci.Model.write_range p ~off:60 ~len:size () in
        [
          string_of_int size;
          string_of_int full64;
          string_of_int part16;
          Table.fmt_us (Time.to_us lat0);
          Table.fmt_us (Time.to_us lat15);
        ])
  in
  let header =
    [ "size (B)"; "64B pkts"; "16B pkts"; "offset 0 (us)"; "offset 60 (us)" ]
  in
  Table.print ~title:"Figure 5: SCI remote write latency (by word offset)" ~header rows;
  Printf.printf "(4-byte store: %.2f us, paper: 2.7 us)\n"
    (Time.to_us (Sci.Model.write_range p ~off:0 ~len:4 ()));
  Table.save_csv ~path:(csv_path "fig5") ~header rows

(* ------------------------------------------------------------------ *)
(* F6: PERSEAS transaction overhead vs transaction size                *)

let fig6_sizes = [ 4; 16; 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576 ]

let fig6 () =
  let rows =
    List.map
      (fun tx_size ->
        let iters = max 30 (min 2000 (2_000_000 / tx_size)) in
        let r =
          synthetic (Testbed.perseas_instance ()) ~db_size:(mb 8) ~tx_size ~warmup:5 ~iters
        in
        [ string_of_int tx_size; Table.fmt_us r.Measure.mean_us; Table.fmt_tps r.Measure.tps ])
      fig6_sizes
  in
  let header = [ "tx size (B)"; "overhead (us)"; "tps" ] in
  Table.print ~title:"Figure 6: PERSEAS transaction overhead vs size (8 MB database)" ~header rows;
  Table.save_csv ~path:(csv_path "fig6") ~header rows

(* ------------------------------------------------------------------ *)
(* T1: debit-credit and order-entry on PERSEAS                         *)

let table1 () =
  let run mix = Measure.workload (Testbed.perseas_instance ()) mix ~warmup:1000 ~iters:20_000 in
  let dc = run debit_credit and oe = run order_entry in
  let header = [ "benchmark"; "tps"; "mean (us)"; "p99 (us)" ] in
  let rows =
    [
      [ "debit-credit"; Table.fmt_tps dc.tps; Table.fmt_us dc.mean_us; Table.fmt_us dc.p99_us ];
      [ "order-entry"; Table.fmt_tps oe.tps; Table.fmt_us oe.mean_us; Table.fmt_us oe.p99_us ];
    ]
  in
  Table.print ~title:"Table 1: PERSEAS throughput (paper: 22k / 10k tps)" ~header rows;
  Table.save_csv ~path:(csv_path "table1") ~header rows

(* ------------------------------------------------------------------ *)
(* C1: small synthetic transactions across engines                     *)

let compare_synthetic () =
  let results =
    List.map
      (fun inst ->
        (Testbed.label inst, synthetic inst ~db_size:(mb 1) ~tx_size:4 ~warmup:200 ~iters:5000))
      (Testbed.all_instances ())
  in
  let perseas_tps =
    match List.assoc_opt "PERSEAS" results with Some r -> r.Measure.tps | None -> nan
  in
  let header = [ "engine"; "tps"; "mean (us)"; "PERSEAS speedup" ] in
  let rows =
    List.map
      (fun (label, (r : Measure.result)) ->
        [
          label;
          Table.fmt_tps r.tps;
          Table.fmt_us r.mean_us;
          (if label = "PERSEAS" then "1.0x" else Table.fmt_ratio (perseas_tps /. r.tps));
        ])
      results
  in
  Table.print
    ~title:"Comparison: 4-byte synthetic transactions (paper: PERSEAS orders of magnitude over RVM)"
    ~header rows;
  Table.save_csv ~path:(csv_path "compare_synthetic") ~header rows

(* ------------------------------------------------------------------ *)
(* C2: debit-credit and order-entry across engines                     *)

let compare_bench () =
  let bench name mix =
    let results =
      List.map
        (fun inst ->
          let iters = if Testbed.label inst = "RVM" then 2000 else 10_000 in
          (Testbed.label inst, Measure.workload inst mix ~warmup:(iters / 10) ~iters))
        (Testbed.all_instances ())
    in
    let header = [ "engine"; "tps"; "mean (us)" ] in
    let rows =
      List.map
        (fun (label, (r : Measure.result)) ->
          [ label; Table.fmt_tps r.tps; Table.fmt_us r.mean_us ])
        results
    in
    Table.print ~title:(Printf.sprintf "Comparison: %s across engines" name) ~header rows;
    Table.save_csv ~path:(csv_path ("compare_" ^ name)) ~header rows
  in
  bench "debit-credit" debit_credit;
  bench "order-entry" order_entry

(* ------------------------------------------------------------------ *)
(* S1: throughput vs database size                                     *)

let db_size_sweep () =
  let header = [ "accounts"; "db size (MB)"; "tps" ] in
  let rows =
    List.map
      (fun accounts ->
        let params = { Workloads.Debit_credit.default_params with accounts_per_branch = accounts } in
        let inst = Testbed.perseas_instance ~dram_mb:192 () in
        let r = Measure.workload inst (Measure.Debit_credit params) ~warmup:500 ~iters:10_000 in
        let db_mb =
          float_of_int (accounts * Workloads.Debit_credit.record_size) /. 1048576.
        in
        [ Table.fmt_int accounts; Printf.sprintf "%.1f" db_mb; Table.fmt_tps r.tps ])
      [ 1_000; 10_000; 100_000; 400_000 ]
  in
  Table.print
    ~title:"Database size sweep: debit-credit on PERSEAS (paper: flat while DB < memory)" ~header
    rows;
  Table.save_csv ~path:(csv_path "db_size_sweep") ~header rows

(* ------------------------------------------------------------------ *)
(* R1: crash mid-commit, recover on spare node and rebooted primary    *)

let recovery () =
  let scenario ~db_size ~recover_on =
    let bed = Testbed.perseas_bed ~dram_mb:128 () in
    let module S = Workloads.Synthetic.Make (Perseas.Engine) in
    let rng = Rng.create 23 in
    let db = S.setup bed.perseas ~db_size in
    for _ = 1 to 50 do
      S.transaction db rng ~tx_size:256
    done;
    (* Crash in the middle of a committing transaction's packet stream. *)
    let seg = Option.get (Perseas.segment bed.perseas "synthetic") in
    let txn = Perseas.begin_transaction bed.perseas in
    Perseas.set_range txn seg ~off:0 ~len:(kb 16);
    Perseas.write bed.perseas seg ~off:0 (Bytes.make (kb 16) 'X');
    let total = Perseas.commit_packets txn in
    let cut = total / 2 in
    let sent = ref 0 in
    let exception Crash in
    Perseas.set_packet_hook bed.perseas
      (Some (fun () -> if !sent >= cut then raise Crash else incr sent));
    (match Perseas.commit txn with () -> assert false | exception Crash -> ());
    ignore (Cluster.crash_node bed.cluster 0 Cluster.Failure.Software_error);
    let local =
      match recover_on with
      | `Spare -> 2
      | `Primary ->
          Cluster.restart_node bed.cluster 0;
          0
    in
    let t0 = Clock.now bed.clock in
    let recovered = Perseas.recover ~cluster:bed.cluster ~local ~server:bed.server () in
    let elapsed = Clock.now bed.clock - t0 in
    let seg' = Option.get (Perseas.segment recovered "synthetic") in
    assert (Perseas.checksum recovered seg' = Perseas.mirror_checksum recovered seg');
    elapsed
  in
  let header = [ "db size (MB)"; "recover on"; "recovery time (ms)" ] in
  let rows =
    List.concat_map
      (fun size_mb ->
        List.map
          (fun (where, where_label) ->
            let elapsed = scenario ~db_size:(mb size_mb) ~recover_on:where in
            [ string_of_int size_mb; where_label; Table.fmt_ms (Time.to_ms elapsed) ])
          [ (`Spare, "spare node"); (`Primary, "rebooted primary") ])
      [ 1; 4; 16 ]
  in
  Table.print
    ~title:"Recovery: crash mid-commit, rebuild from the mirror (atomicity checked)" ~header rows;
  Table.save_csv ~path:(csv_path "recovery") ~header rows

(* ------------------------------------------------------------------ *)
(* R10: fuzzy checkpoints keep recovery time flat vs database size     *)

(* Primary (0), mirror (1), checkpoint target (2), spare (3).  The
   target's server is created but not yet attached. *)
let checkpoint_bed () =
  let bed = Testbed.make ~extras:[ "ckpt" ] ~spare:true ~mirrors:1 () in
  (bed, Netram.Server.create (Cluster.node bed.cluster 2))

type checkpoint_cycle = {
  generation : int64;
  cut : int64;
  shipped_bytes : int;
  truncated_bytes : int;
  undo_hwm_before : int;
  undo_hwm_after : int;
  recovery_us : float;
  recovered_epoch : int64;
  mirrors_clean : bool;
  committed_kept : bool;
  db_bytes : int;
  segments : int;
}

let checkpoint_cycle ?(restore = `Checkpoint) ~txns ~tail () =
  let { Testbed.clock; cluster; servers; perseas = t }, ckpt_server = checkpoint_bed () in
  let module W = Workloads.Debit_credit.Make (Perseas.Engine) in
  let rng = Rng.create 7 in
  let db = W.setup t ~params:Workloads.Debit_credit.default_params in
  Perseas.Checkpoint.set_ram_target t ~server:ckpt_server;
  let run n =
    for _ = 1 to n do
      W.transaction db rng
    done
  in
  run txns;
  let undo_hwm_before = (Perseas.stats t).Perseas.undo_hwm_bytes in
  let cut, truncated_bytes = Perseas.Checkpoint.take t in
  let st = Perseas.stats t in
  let generation = Perseas.Checkpoint.generation t in
  run tail;
  let signature t =
    List.map (fun s -> (Perseas.segment_name s, Perseas.checksum t s)) (Perseas.segments t)
  in
  let committed = signature t in
  ignore (Cluster.crash_node cluster 0 Cluster.Failure.Software_error);
  (* The slot adopted on the target's own node, or plain mirror fetch
     onto the spare, alone or with the target's node as a helper. *)
  let local, checkpoint, helpers =
    match restore with
    | `Checkpoint -> (2, Some (Perseas.Ram_source ckpt_server), [])
    | `Mirror -> (3, None, [])
    | `Mirror_helper -> (3, None, [ 2 ])
  in
  let t0 = Clock.now clock in
  let t2 =
    Perseas.recover_replicated ~config:(Perseas.config t) ?checkpoint ~helpers ~cluster ~local
      ~servers ()
  in
  {
    generation;
    cut;
    shipped_bytes = st.Perseas.checkpoint_bytes;
    truncated_bytes;
    undo_hwm_before;
    undo_hwm_after = st.Perseas.undo_hwm_bytes;
    recovery_us = Time.to_us (Clock.now clock - t0);
    recovered_epoch = Perseas.epoch t2;
    mirrors_clean = Perseas.verify_mirrors t2 = [];
    committed_kept = signature t2 = committed;
    db_bytes = List.fold_left (fun acc s -> acc + Perseas.segment_size s) 0 (Perseas.segments t);
    segments = List.length (Perseas.segments t);
  }

let checkpoint () =
  (* Every segment is dirtied before the checkpoint; after the cut one
     range of one segment is touched.  Without a checkpoint the whole
     database streams over from the mirror. *)
  let run ~nsegs ~mode =
    let { Testbed.clock; cluster; servers; perseas = t }, ckpt_server = checkpoint_bed () in
    let seg_size = kb 128 in
    let segs =
      List.init nsegs (fun i ->
          let seg = Perseas.malloc t ~name:(Printf.sprintf "seg%d" i) ~size:seg_size in
          Perseas.write t seg ~off:0
            (Bytes.init seg_size (fun j -> Char.chr ((i + j) land 0xff)));
          seg)
    in
    Perseas.init_remote_db t;
    let touch seg ~off fill =
      let txn = Perseas.begin_transaction t in
      Perseas.set_range txn seg ~off ~len:256;
      Perseas.write t seg ~off (Bytes.make 256 fill);
      Perseas.commit txn
    in
    List.iteri (fun i seg -> touch seg ~off:(64 * (i mod 16)) 'a') segs;
    if mode <> `Off then begin
      Perseas.Checkpoint.set_ram_target t ~server:ckpt_server;
      ignore (Perseas.Checkpoint.take t)
    end;
    (* A short, size-independent tail of commits after the cut. *)
    touch (List.hd segs) ~off:4096 'z';
    let committed =
      List.map (fun s -> (Perseas.segment_name s, Perseas.checksum t s)) segs
    in
    ignore (Cluster.crash_node cluster 0 Cluster.Failure.Software_error);
    let local, checkpoint, helpers =
      match mode with
      | `Off -> (3, None, [])
      | `Off_helper -> (3, None, [ 2 ])
      | `On -> (2, Some (Perseas.Ram_source ckpt_server), [])
    in
    let t0 = Clock.now clock in
    let t2 =
      Perseas.recover_replicated ?checkpoint ~helpers ~cluster ~local ~servers ()
    in
    let elapsed = Clock.now clock - t0 in
    (* Zero committed-data loss however the image was rebuilt. *)
    List.iter
      (fun (name, sum) ->
        let s = Option.get (Perseas.segment t2 name) in
        assert (Perseas.checksum t2 s = sum))
      committed;
    assert (Perseas.verify_mirrors t2 = []);
    elapsed
  in
  let sizes = [ 4; 8; 16; 32 ] in
  let modes = [ `Off; `Off_helper; `On ] in
  let times =
    List.map (fun nsegs -> (nsegs, List.map (fun mode -> run ~nsegs ~mode) modes)) sizes
  in
  (* Debit-credit with a real tail: 200 transactions after the cut
     touch every table, one chunk per table each. *)
  let dc =
    List.map
      (fun restore ->
        let c = checkpoint_cycle ~restore ~txns:2_000 ~tail:200 () in
        assert (c.committed_kept && c.mirrors_clean);
        c)
      [ `Mirror; `Mirror_helper; `Checkpoint ]
  in
  let header =
    [ "database"; "segments"; "db (KB)"; "off (us)"; "off + helper (us)"; "checkpoint (us)" ]
  in
  let rows =
    List.map
      (fun (nsegs, ts) ->
        "synthetic" :: string_of_int nsegs :: string_of_int (nsegs * 128)
        :: List.map (fun e -> Table.fmt_us (Time.to_us e)) ts)
      times
    @ [
        (let c = List.hd dc in
         "debit-credit" :: string_of_int c.segments
         :: string_of_int ((c.db_bytes + 1023) / 1024)
         :: List.map (fun c -> Table.fmt_us c.recovery_us) dc);
      ]
  in
  Table.print
    ~title:
      "Checkpointed recovery: rebuild time vs database size (flat with a checkpoint, linear \
       without)"
    ~header rows;
  Table.save_csv ~path:(csv_path "checkpoint") ~header rows;
  (* On debit-credit, checkpointed recovery reads only the chunks the
     tail wrote: at least 5x faster than plain recovery. *)
  let dc_speedup = (List.hd dc).recovery_us /. (List.nth dc 2).recovery_us in
  Printf.printf "debit-credit: checkpointed recovery %.1fx faster than plain (bar: >= 5.0x)\n"
    dc_speedup;
  assert (dc_speedup >= 5.0);
  (* One helper pulls half the bytes even though one table holds
     nearly all of them: reads go to the least-loaded stream, and a
     segment larger than a stream's share is cut. *)
  let helper_speedup = (List.hd dc).recovery_us /. (List.nth dc 1).recovery_us in
  Printf.printf "debit-credit: one helper makes plain recovery %.2fx faster (bar: >= 1.8x)\n"
    helper_speedup;
  assert (helper_speedup >= 1.8);
  (* The acceptance bar: smallest -> largest database, checkpointed
     recovery grows by at most 1.5x while plain mirror recovery at
     least doubles. *)
  let column i =
    let first = List.nth (snd (List.hd times)) i in
    let last = List.nth (snd (List.nth times (List.length times - 1))) i in
    float_of_int last /. float_of_int first
  in
  let off_ratio = column 0 and on_ratio = column 2 in
  Printf.printf
    "recovery time smallest -> largest: %.2fx without a checkpoint, %.2fx with (bar: >= 2.0 vs \
     <= 1.5)\n"
    off_ratio on_ratio;
  assert (off_ratio >= 2.0);
  assert (on_ratio <= 1.5)

(* ------------------------------------------------------------------ *)
(* A1: per-transaction copy and I/O counts                             *)

let copy_counts () =
  let iters = 1000 in
  let header =
    [ "engine"; "local copy B/txn"; "remote pkts/txn"; "remote B/txn"; "disk writes/txn" ]
  in
  let per x = Printf.sprintf "%.1f" (float_of_int x /. float_of_int iters) in
  let run ~reset inst = ignore (Measure.workload ~reset inst small_debit_credit ~warmup:0 ~iters) in
  let perseas_row =
    let bed = Testbed.make ~spare:true ~mirrors:1 () in
    let nic = Cluster.nic bed.cluster in
    let stats0 = ref (Perseas.stats bed.perseas) in
    run (Testbed.instance bed) ~reset:(fun () ->
        Sci.Nic.reset_counters nic;
        stats0 := Perseas.stats bed.perseas);
    let stats1 = Perseas.stats bed.perseas in
    let c = Sci.Nic.counters nic in
    [
      "PERSEAS";
      per (stats1.local_copy_bytes - !stats0.local_copy_bytes);
      per (c.packets64 + c.packets16);
      per c.bytes_written;
      "0.0";
    ]
  in
  let baseline_row ((module I : Testbed.INSTANCE) as inst) =
    let device = Option.get I.device in
    let writes0 = ref 0 in
    run inst ~reset:(fun () -> writes0 := Disk.Device.writes_performed device);
    [ I.label; "-"; "0.0"; "0.0"; per (Disk.Device.writes_performed device - !writes0) ]
  in
  let rows =
    perseas_row
    :: List.map baseline_row
         [ Testbed.rvm_instance (); Testbed.rvm_instance ~rio:true (); Testbed.vista_instance () ]
  in
  Table.print
    ~title:
      "Copy counts per debit-credit transaction (Fig 2 vs Fig 3: PERSEAS does memory copies only)"
    ~header rows;
  Table.save_csv ~path:(csv_path "copy_counts") ~header rows

(* ------------------------------------------------------------------ *)
(* A2: sci_memcpy 64-byte-alignment ablation                           *)

let ablation_memcpy () =
  let measure ~optimized tx_size =
    let config = { Perseas.default_config with optimized_memcpy = optimized } in
    (synthetic (Testbed.perseas_instance ~config ()) ~db_size:(mb 4) ~tx_size ~warmup:20 ~iters:500)
      .Measure.mean_us
  in
  let header = [ "tx size (B)"; "optimized (us)"; "naive (us)"; "speedup" ] in
  let rows =
    List.map
      (fun size ->
        let opt = measure ~optimized:true size in
        let naive = measure ~optimized:false size in
        [
          string_of_int size;
          Table.fmt_us opt;
          Table.fmt_us naive;
          Table.fmt_ratio (naive /. opt);
        ])
      [ 64; 256; 1024; 4096; 65536 ]
  in
  Table.print ~title:"Ablation: sci_memcpy 64-byte-aligned region copies (section 4)" ~header rows;
  Table.save_csv ~path:(csv_path "ablation_memcpy") ~header rows

(* ------------------------------------------------------------------ *)
(* R8: redundancy elision — first-write-only undo, coalesced commit    *)

let elision () =
  let warmup = 200 and iters = 2000 in
  let txns = float_of_int (warmup + iters) in
  (* A fresh cluster per (workload, mode) cell, NIC counters reset
     after setup so packets/txn covers exactly the warmup + measured
     transactions. *)
  let cell mix name ~elide =
    let config = { Perseas.default_config with redundancy_elision = elide } in
    let bed = Testbed.make ~config ~spare:true ~mirrors:1 () in
    let nic = Cluster.nic bed.cluster in
    let r =
      Measure.workload ~reset:(fun () -> Sci.Nic.reset_counters nic) (Testbed.instance bed) mix
        ~warmup ~iters
    in
    let c = Sci.Nic.counters nic in
    let st = Perseas.stats bed.perseas in
    let pkts = float_of_int (c.Sci.Nic.packets64 + c.Sci.Nic.packets16) /. txns in
    let per x = float_of_int x /. txns in
    ( [
        name;
        (if elide then "elided" else "naive");
        Printf.sprintf "%.2f" pkts;
        Printf.sprintf "%.1f" (per st.Perseas.undo_bytes_logged);
        Printf.sprintf "%.1f" (per st.Perseas.elided_undo_bytes);
        Printf.sprintf "%.1f" (per st.Perseas.commit_bytes_saved);
        Table.fmt_us r.Measure.mean_us;
        Table.fmt_tps r.Measure.tps;
      ],
      pkts,
      st.Perseas.undo_bytes_logged )
  in
  let rows, verdicts =
    List.split
      (List.map
         (fun (name, workload) ->
           let naive_row, naive_pkts, naive_undo = cell workload name ~elide:false in
           let elided_row, elided_pkts, elided_undo = cell workload name ~elide:true in
           ( [ naive_row; elided_row ],
             (name, naive_pkts, elided_pkts, naive_undo, elided_undo) ))
         [ ("overlap-heavy", Measure.Overlap { db_size = mb 1 }); ("order-entry", order_entry) ])
  in
  let rows = List.concat rows in
  let header =
    [ "workload"; "mode"; "pkts/txn"; "undo B/txn"; "elided B/txn"; "saved B/txn"; "mean (us)"; "tps" ]
  in
  Table.print ~title:"Redundancy elision: naive vs first-write-only + coalesced commit" ~header rows;
  List.iter
    (fun (name, naive_pkts, elided_pkts, naive_undo, elided_undo) ->
      Printf.printf "%s: undo bytes x%.2f, packets x%.2f\n" name
        (float_of_int elided_undo /. float_of_int naive_undo)
        (elided_pkts /. naive_pkts))
    verdicts;
  Table.save_csv ~path:(csv_path "elision") ~header rows;
  (* Acceptance: on the overlap mix, elision must save >=30% of the
     undo bytes and strictly cut the packet schedule. *)
  (match verdicts with
  | (_, naive_pkts, elided_pkts, naive_undo, elided_undo) :: _ ->
      assert (float_of_int elided_undo <= 0.7 *. float_of_int naive_undo);
      assert (elided_pkts < naive_pkts)
  | [] -> ())

(* ------------------------------------------------------------------ *)
(* A3: RVM group commit vs PERSEAS                                     *)

let group_commit () =
  let header = [ "engine"; "group size"; "tps" ] in
  let rvm_rows =
    List.map
      (fun group ->
        let config = { Baselines.Rvm.default_config with group_commit = group } in
        let r =
          Measure.workload (Testbed.rvm_instance ~config ()) debit_credit ~warmup:200 ~iters:2000
        in
        [ "RVM"; string_of_int group; Table.fmt_tps r.tps ])
      [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  let perseas_row =
    let r = Measure.workload (Testbed.perseas_instance ()) debit_credit ~warmup:500 ~iters:10_000 in
    [ "PERSEAS"; "-"; Table.fmt_tps r.tps ]
  in
  let rows = rvm_rows @ [ perseas_row ] in
  Table.print
    ~title:"Group commit: RVM batched log forces vs PERSEAS (section 6 claim)" ~header rows;
  Table.save_csv ~path:(csv_path "group_commit") ~header rows

(* ------------------------------------------------------------------ *)
(* C3: Remote-WAL (Ioanidis et al.) burst vs sustained load            *)

let remote_wal_load () =
  (* Burst commits run at remote-memory speed; sustained load backs up
     behind the asynchronous disk writer — section 2's critique of the
     remote-memory WAL.  PERSEAS has no disk anywhere, so its rate is
     flat.  Measure tps over windows of increasing depth into a long
     run. *)
  let windows = [ 500; 1000; 2000; 4000; 8000; 16000 ] in
  let series (module I : Testbed.INSTANCE) =
    let module W = Workloads.Debit_credit.Make (I.E) in
    let rng = Rng.create 5 in
    let db = W.setup I.engine ~params:Workloads.Debit_credit.small_params in
    let done_ = ref 0 in
    List.map
      (fun upto ->
        let t0 = Clock.now I.clock in
        let batch = upto - !done_ in
        for _ = 1 to batch do
          W.transaction db rng
        done;
        done_ := upto;
        float_of_int batch /. Time.to_s (Clock.now I.clock - t0))
      windows
  in
  let rwal = series (Testbed.remote_wal_instance ()) in
  let perseas = series (Testbed.perseas_instance ()) in
  let header = [ "txns so far"; "RemoteWAL tps (window)"; "PERSEAS tps (window)" ] in
  let rows =
    List.map2
      (fun (upto, r) p -> [ Table.fmt_int upto; Table.fmt_tps r; Table.fmt_tps p ])
      (List.combine windows rwal) perseas
  in
  Table.print
    ~title:
      "Remote-memory WAL under load: bursts at network speed, sustained rate disk-bound (section 2)"
    ~header rows;
  Table.save_csv ~path:(csv_path "remote_wal_load") ~header rows

(* ------------------------------------------------------------------ *)
(* A4: replication degree                                              *)

let replication_degree () =
  let tps_with_mirrors k =
    let inst = Testbed.instance (Testbed.make ~mirrors:k ()) in
    (Measure.workload ~seed:4 inst small_debit_credit ~warmup:500 ~iters:5000).Measure.tps
  in
  let base = tps_with_mirrors 1 in
  let header = [ "mirrors"; "tps"; "vs 1 mirror" ] in
  let rows =
    List.map
      (fun k ->
        let tps = if k = 1 then base else tps_with_mirrors k in
        [ string_of_int k; Table.fmt_tps tps; Printf.sprintf "%.2fx" (tps /. base) ])
      [ 1; 2; 3; 4 ]
  in
  Table.print
    ~title:"Replication degree: debit-credit throughput vs number of mirrors (section 1)"
    ~header rows;
  Table.save_csv ~path:(csv_path "replication_degree") ~header rows

(* ------------------------------------------------------------------ *)
(* R2: availability and data-loss Monte Carlo                          *)

let availability_header =
  [ "deployment"; "availability %"; "loss events / decade"; "trials with loss %" ]

let availability_table ?(params = Availability.default_params) ~trials () =
  let rows =
    List.map
      (fun d ->
        let r = Availability.simulate ~params ~trials d in
        [
          r.Availability.label;
          Printf.sprintf "%.4f" (100. *. r.availability);
          Printf.sprintf "%.3f" r.loss_events_per_decade;
          Printf.sprintf "%.1f" (100. *. r.trials_with_loss);
        ])
      Availability.standard_deployments
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Availability Monte Carlo, %g-year horizon x%d trials (section 1's reliability argument)"
         (Time.to_s params.Availability.horizon /. (365. *. 86_400.))
         trials)
    ~header:availability_header rows;
  rows

let availability () =
  Table.save_csv ~path:(csv_path "availability") ~header:availability_header
    (availability_table ~trials:200 ())

(* ------------------------------------------------------------------ *)
(* T2: technology-trend projection (section 6)                         *)

let trend () =
  (* "The performance benefits of our approach will increase with time":
     interconnects improve 20-45 %/year, disks 10-20 %/year.  Project
     both cost models forward and watch the PERSEAS/RVM gap widen. *)
  let tps inst ~warmup ~iters =
    (Measure.workload ~seed:3 inst small_debit_credit ~warmup ~iters).Measure.tps
  in
  let perseas_at years =
    tps (Testbed.perseas_instance ~params:(Sci.Params.projected ~years ()) ()) ~warmup:500 ~iters:5000
  in
  let rvm_at years =
    let geometry = Disk.Device.projected_geometry ~years () in
    tps (Testbed.rvm_instance ~geometry ()) ~warmup:100 ~iters:1000
  in
  let header = [ "year"; "PERSEAS tps"; "RVM tps"; "speedup" ] in
  let rows =
    List.map
      (fun years ->
        let p = perseas_at years and r = rvm_at years in
        [ string_of_int (1998 + years); Table.fmt_tps p; Table.fmt_tps r; Table.fmt_ratio (p /. r) ])
      [ 0; 2; 4; 6; 8 ]
  in
  Table.print
    ~title:"Technology trend: projected PERSEAS vs RVM, debit-credit (section 6 claim)" ~header
    rows;
  Table.save_csv ~path:(csv_path "trend") ~header rows

(* ------------------------------------------------------------------ *)
(* R3: remote-memory paging vs disk swap                               *)

let paging () =
  (* The project this paper grew from: use idle cluster memory instead
     of the swap disk.  Sweep the resident-set fraction and compare the
     average access time of a random workload over a 16 MB address
     space. *)
  let module Pager = Netram.Pager in
  let pages = 4096 (* 16 MB *) in
  let accesses = 20_000 in
  let run ~backing_of ~frames =
    let clock = Clock.create () in
    let cluster =
      Cluster.create ~clock
        [
          Cluster.spec ~dram_size:(mb 64) ~power_supply:0 "local";
          Cluster.spec ~dram_size:(mb 64) ~power_supply:1 "memory-server";
        ]
    in
    let pager = Pager.create ~backing:(backing_of clock cluster) ~node:(Cluster.node cluster 0) ~pages ~frames () in
    let rng = Rng.create 31 in
    let t0 = Clock.now clock in
    for _ = 1 to accesses do
      let page = Rng.int rng pages in
      let addr = (page * Pager.page_size) + Rng.int rng (Pager.page_size - 8) in
      if Rng.bool rng then ignore (Pager.read pager ~addr ~len:8)
      else Pager.write pager ~addr (Bytes.make 8 'w')
    done;
    let elapsed = Clock.now clock - t0 in
    (Time.to_us elapsed /. float_of_int accesses, (Pager.stats pager).faults)
  in
  let remote_backing _clock cluster =
    Pager.Remote_memory
      (Netram.Client.create ~cluster ~local:0 ~server:(Netram.Server.create (Cluster.node cluster 1)))
  in
  let disk_backing clock _cluster =
    Pager.Swap_disk
      (Disk.Device.create ~clock ~backend:(Disk.Device.Magnetic Disk.Device.default_geometry)
         ~capacity:(pages * Pager.page_size))
  in
  let header =
    [ "resident %"; "faults"; "remote us/access"; "disk us/access"; "remote speedup" ]
  in
  let rows =
    List.map
      (fun percent ->
        let frames = max 1 (pages * percent / 100) in
        let remote_us, faults = run ~backing_of:remote_backing ~frames in
        let disk_us, _ = run ~backing_of:disk_backing ~frames in
        [
          string_of_int percent;
          Table.fmt_int faults;
          Table.fmt_us remote_us;
          Table.fmt_us disk_us;
          Table.fmt_ratio (disk_us /. remote_us);
        ])
      [ 25; 50; 75; 90; 99 ]
  in
  Table.print
    ~title:"Remote-memory paging vs disk swap: random access over a 16 MB space" ~header rows;
  Table.save_csv ~path:(csv_path "paging") ~header rows

(* ------------------------------------------------------------------ *)
(* D1: application-layer data structures on PERSEAS vs Vista           *)

let datastores () =
  (* What the intro's applications actually pay: operations per second
     of a transactional hash map and B+-tree on PERSEAS vs Vista (the
     fastest single-node alternative). *)
  let run_on (module I : Testbed.INSTANCE) =
    let module KV = Kvstore.Make (I.E) in
    let module BT = Btree.Make (I.E) in
    let kv = KV.create I.engine ~name:"bench-kv" in
    let bt = BT.create I.engine ~name:"bench-bt" in
    I.E.init_done I.engine;
    let rng = Rng.create 13 in
    let measure iters f =
      for i = 1 to iters / 10 do
        f i
      done;
      let t0 = Clock.now I.clock in
      for i = 1 to iters do
        f i
      done;
      float_of_int iters /. Time.to_s (Clock.now I.clock - t0)
    in
    (* Reads (get / range) are plain memory loads — free in virtual
       time — so only mutating operations are rated here. *)
    let kv_put = measure 5000 (fun i -> KV.put kv (Printf.sprintf "key%d" (i mod 800)) (string_of_int i)) in
    let kv_cycle =
      measure 2500 (fun i ->
          let key = Printf.sprintf "cyc%d" (i mod 100) in
          if KV.mem kv key then ignore (KV.delete kv key) else KV.put kv key "x")
    in
    let bt_insert =
      measure 5000 (fun i ->
          BT.insert bt ~key:(Int64.of_int (Rng.int rng 100_000)) ~value:(Int64.of_int i))
    in
    (I.label, kv_put, kv_cycle, bt_insert)
  in
  let header = [ "engine"; "kv put/s"; "kv put-delete cycle/s"; "btree insert/s" ] in
  let rows =
    List.map
      (fun (label, a, b, c) -> [ label; Table.fmt_tps a; Table.fmt_tps b; Table.fmt_tps c ])
      (* PERSEAS pays the mirror; Vista pays protected local stores. *)
      [ run_on (Testbed.perseas_instance ()); run_on (Testbed.vista_instance ()) ]
  in
  Table.print ~title:"Application data structures: transactional ops/s" ~header rows;
  Table.save_csv ~path:(csv_path "datastores") ~header rows

(* ------------------------------------------------------------------ *)
(* R4: systematic crash-point sweep                                    *)

let crash_sweep () =
  (* Enumerate every packet boundary of a 3-range debit-credit commit
     (1 and 2 mirrors, primary and mirror victims) and of an
     attach_mirror resync, crash there, and hold recovery to the
     Crashpoint oracle.  The run aborts with Oracle_violation if any
     point recovers to anything but a legal image. *)
  let reports =
    [
      Crashpoint.sweep (Crashpoint.commit_scenario ~mirrors:1 ());
      Crashpoint.sweep (Crashpoint.commit_scenario ~mirrors:2 ());
      Crashpoint.sweep ~victim:(Crashpoint.Mirror 0) (Crashpoint.commit_scenario ~mirrors:2 ());
      Crashpoint.sweep ~victim:(Crashpoint.Mirror 0) (Crashpoint.commit_scenario ~mirrors:1 ());
      Crashpoint.sweep (Crashpoint.attach_scenario ~mirrors:1 ());
      (* The elision stress mix, both packet schedules: crash points
         differ but the legal images must not. *)
      Crashpoint.sweep (Crashpoint.overlap_scenario ~elision:true ());
      Crashpoint.sweep (Crashpoint.overlap_scenario ~elision:false ());
      (* Concurrency: a group flush of three disjoint clients with a
         fourth transaction open across it — per-transaction atomicity
         with ≥2 in flight at every cut packet. *)
      Crashpoint.sweep (Crashpoint.concurrent_scenario ~mirrors:1 ());
      Crashpoint.sweep ~victim:(Crashpoint.Mirror 0) (Crashpoint.concurrent_scenario ~mirrors:2 ());
      (* Fuzzy checkpointing: commits interleaved with every phase of a
         checkpoint (slot zeroing, shipping, publication, truncation);
         each victim in turn, including the checkpoint target itself. *)
      Crashpoint.sweep (Crashpoint.checkpoint_scenario ());
      Crashpoint.sweep ~victim:(Crashpoint.Mirror 0) (Crashpoint.checkpoint_scenario ~mirrors:2 ());
      Crashpoint.sweep ~victim:Crashpoint.Ckpt_target (Crashpoint.checkpoint_scenario ());
      (* Checkpointed recovery cut at every packet: the recovering node
         dies and recovery reruns elsewhere, in both orders of the
         target's node and the spare. *)
      Crashpoint.sweep
        ~victim:(Crashpoint.Recovering { in_place_first = true })
        (Crashpoint.recovery_scenario ());
      Crashpoint.sweep
        ~victim:(Crashpoint.Recovering { in_place_first = false })
        (Crashpoint.recovery_scenario ());
    ]
  in
  let header =
    [ "scenario"; "victim"; "packets"; "old"; "new"; "repaired"; "max recovery (us)" ]
  in
  let rows =
    List.map
      (fun (r : Crashpoint.report) ->
        let max_us =
          List.fold_left (fun acc p -> max acc p.Crashpoint.recovery_us) 0. r.points
        in
        [
          r.label;
          Crashpoint.victim_label r.victim;
          string_of_int r.total_packets;
          string_of_int r.old_images;
          string_of_int r.new_images;
          string_of_int r.repaired;
          Table.fmt_us max_us;
        ])
      reports
  in
  Table.print
    ~title:"Crash-point sweep: every packet boundary crashed, oracle-checked (section 3)" ~header
    rows;
  Table.save_csv ~path:(csv_path "crash_sweep") ~header:Crashpoint.csv_header
    (List.concat_map Crashpoint.report_rows reports)

(* ------------------------------------------------------------------ *)
(* Self-healing replication under churn                                *)

let run_churn ?(params = Churn.default_params) () =
  let r = Churn.run ~params () in
  Table.print
    ~title:
      (Printf.sprintf
         "Churn: debit-credit under mirror failures, %d mirrors + %d spares, mtbf %.0f us, %.0f ms \
          horizon (seed %d)"
         params.Churn.mirrors params.spares (Time.to_us params.mtbf) (Time.to_ms params.duration)
         params.seed)
    ~header:Churn.csv_header (Churn.report_rows r);
  Printf.printf
    "committed %d txns (%.0f tps under churn), %d injections (%d pauses / %d crashes) over %d \
     nodes, %d retries after total mirror loss; resyncs: %d incremental (%s B) vs %d full (%s B, \
     full copy is %s B each)\n"
    r.Churn.committed r.tps
    (List.length r.injections)
    (List.length (List.filter (fun i -> i.Churn.kind = Churn.Pause) r.injections))
    (List.length (List.filter (fun i -> i.Churn.kind = Churn.Crash) r.injections))
    (List.length r.nodes_hit) r.outage_retries r.incremental_resyncs
    (Table.fmt_int r.incremental_bytes)
    r.full_resyncs
    (Table.fmt_int r.full_resync_bytes)
    (Table.fmt_int r.full_copy_bytes);
  Churn.check r;
  print_endline
    "oracle: factor restored, mirrors scrubbed clean, no committed transaction lost after \
     killing the primary";
  r

let churn () =
  Table.save_csv ~path:(csv_path "churn") ~header:Churn.csv_header (Churn.report_rows (run_churn ()))

(* ------------------------------------------------------------------ *)
(* R9: concurrent disjoint clients and group commit                     *)

(* Mostly-disjoint working sets: enough branches (the hottest record
   class — one per scale unit) that two in-flight transactions rarely
   draw the same 64-byte line; the occasional collision exercises the
   younger-aborts path and is retried by the driver. *)
let concurrency_params =
  {
    Workloads.Debit_credit.scale = 1024;
    accounts_per_branch = 250;
    history_slots = 8192;
    skew = Workloads.Debit_credit.Uniform;
  }

let concurrency_levels = [ 1; 2; 4; 8; 16; 32 ]

type concurrency_cell = {
  cc_mirrors : int;
  cc_clients : int;
  cc_committed : int;
  cc_elapsed_us : float;
  cc_tps : float;
  cc_pkts_per_txn : float;
  cc_conflicts : int;
  cc_flushes : int;
}

let concurrency_cell ~mirrors ~clients ~warmup ~txns =
  (* One client runs the seed's eager protocol (the baseline the bar is
     measured against); concurrent runs batch two client rounds per
     flush — the queue depth is a policy knob independent of the client
     count, and two rounds amortise the burst set-up and fence without
     letting the durability window grow with load. *)
  let config =
    { Perseas.default_config with group_commit = (if clients = 1 then 1 else 2 * clients) }
  in
  let bed = Testbed.make ~config ~mirrors () in
  let t = bed.perseas in
  let module W = Workloads.Debit_credit.Make (Perseas.Engine) in
  let rng = Rng.create 97 in
  let db = W.setup t ~params:concurrency_params in
  let spec =
    {
      Multi_client.prepare = (fun _ -> W.draw db rng);
      declare = (fun txn d -> W.declare db txn d);
      apply = (fun d -> W.apply db d);
    }
  in
  ignore (Multi_client.run t ~clients ~total:warmup spec);
  let nic = Cluster.nic bed.cluster in
  Sci.Nic.reset_counters nic;
  let s0 = Perseas.stats t in
  let t0 = Clock.now bed.clock in
  let s = Multi_client.run t ~clients ~total:txns spec in
  let elapsed_us = Time.to_us (Clock.now bed.clock - t0) in
  let c = Sci.Nic.counters nic in
  let s1 = Perseas.stats t in
  assert (W.consistent db);
  {
    cc_mirrors = mirrors;
    cc_clients = clients;
    cc_committed = s.Multi_client.committed;
    cc_elapsed_us = elapsed_us;
    cc_tps = float_of_int s.Multi_client.committed *. 1e6 /. elapsed_us;
    cc_pkts_per_txn =
      float_of_int (c.Sci.Nic.packets64 + c.Sci.Nic.packets16)
      /. float_of_int s.Multi_client.committed;
    cc_conflicts = s.Multi_client.conflicts;
    cc_flushes = s1.Perseas.group_flushes - s0.Perseas.group_flushes;
  }

let concurrency () =
  let txns = 2000 in
  let cells =
    List.concat_map
      (fun mirrors ->
        List.map
          (fun clients -> concurrency_cell ~mirrors ~clients ~warmup:(max 64 (8 * clients)) ~txns)
          concurrency_levels)
      [ 1; 3 ]
  in
  let header = [ "mirrors"; "clients"; "tps"; "pkts/txn"; "conflicts"; "group flushes" ] in
  let rows =
    List.map
      (fun c ->
        [
          string_of_int c.cc_mirrors;
          string_of_int c.cc_clients;
          Table.fmt_tps c.cc_tps;
          Printf.sprintf "%.2f" c.cc_pkts_per_txn;
          string_of_int c.cc_conflicts;
          string_of_int c.cc_flushes;
        ])
      cells
  in
  Table.print
    ~title:
      "R9: debit-credit throughput vs offered concurrency (group commit batches two client \
       rounds per flush)"
    ~header rows;
  Table.save_csv ~path:(csv_path "concurrency") ~header rows;
  (* Acceptance: at one mirror, concurrency 8 must at least double the
     sequential throughput on strictly fewer packets per transaction. *)
  let cell m c = List.find (fun x -> x.cc_mirrors = m && x.cc_clients = c) cells in
  let base = cell 1 1 and c8 = cell 1 8 in
  Printf.printf "speedup at 8 clients, 1 mirror: %.2fx; pkts/txn %.2f -> %.2f\n"
    (c8.cc_tps /. base.cc_tps)
    base.cc_pkts_per_txn c8.cc_pkts_per_txn;
  if c8.cc_tps < 2.0 *. base.cc_tps then
    failwith "concurrency: 8 clients did not double the sequential throughput";
  if c8.cc_pkts_per_txn >= base.cc_pkts_per_txn then
    failwith "concurrency: 8 clients did not cut packets per transaction"

(* ------------------------------------------------------------------ *)
(* R6: phase-level latency breakdown                                    *)

type latency_mix = Debit_credit_mix | Large_update_mix

let latency_mixes = [ Debit_credit_mix; Large_update_mix ]
let mix_label = function Debit_credit_mix -> "debit-credit" | Large_update_mix -> "large-update"

let mix_of = function
  | Debit_credit_mix -> small_debit_credit
  | Large_update_mix -> Measure.Synthetic { db_size = mb 8; tx_size = kb 16 }

let traced_run ?tail ~mix ~mirrors ~warmup ~iters () =
  let bed = Testbed.make ~mirrors () in
  (* Attach the sink only after setup, so its memory holds the run
     itself; Measure's cursor then scopes the breakdown to the
     measured window. *)
  let sink = Trace.Sink.memory () in
  let reset () = Perseas.set_sink bed.perseas sink in
  (Measure.workload ~reset ~sink ?tail (Testbed.instance bed) (mix_of mix) ~warmup ~iters, sink)

let latency_breakdown () =
  let header = "workload" :: "mirrors" :: "tps" :: Trace.Export.phase_csv_header in
  let rows =
    List.concat_map
      (fun mix ->
        List.concat_map
          (fun mirrors ->
            let r, _sink = traced_run ~mix ~mirrors ~warmup:200 ~iters:2000 () in
            List.map
              (fun row -> mix_label mix :: string_of_int mirrors :: Table.fmt_tps r.Measure.tps :: row)
              (Trace.Export.phase_csv_rows r.Measure.phases))
          [ 1; 2; 3 ])
      latency_mixes
  in
  Table.print
    ~title:
      "Latency breakdown: virtual microseconds per transaction phase (phases sum to end-to-end \
       latency)"
    ~header rows;
  Table.save_csv ~path:(csv_path "latency_breakdown") ~header rows

(* ------------------------------------------------------------------ *)
(* R7: telemetry under churn                                            *)

let telemetry () =
  (* The churn run again, this time watched: every 100 us of virtual
     time the sampler snapshots the full gauge set, and the series is
     cross-checked against the supervisor's own event log — the
     degraded windows the dashboard shows must be the ones the
     supervisor actually logged. *)
  let r, tel = Telemetry.instrumented_churn () in
  let header, rows = Telemetry.csv ~tel in
  Table.save_csv ~path:(csv_path "telemetry_churn") ~header rows;
  print_string (Telemetry.top r tel);
  Churn.check r;
  let a =
    Telemetry.agreement ~target:Churn.default_params.Churn.mirrors
      ~samples:(Trace.Timeseries.samples tel) r.Churn.supervisor_events
  in
  Telemetry.check_agreement a;
  Printf.printf
    "agreement: sampler caught %d of %d supervisor degraded windows; %d/%d degraded signals \
     inside logged windows\n"
    a.Telemetry.windows_seen a.windows_total a.matched_signals a.degraded_signals;
  Printf.printf "saved %d samples x %d gauges to %s\n"
    (Trace.Timeseries.sample_count tel)
    (List.length (Trace.Timeseries.names tel))
    (csv_path "telemetry_churn")

(* A single instrumented workload run for `perseas_cli timeline`: spans
   and instants from the sink, gauges sampled on a fixed virtual-time
   grid, both exported — the CSV for plotting, the Chrome JSON (with
   counter tracks) for Perfetto. *)
let timeline_run ~mix ~mirrors ~iters ~interval () =
  let { Testbed.clock; servers; perseas = t; _ } as bed = Testbed.make ~mirrors () in
  let sink = Trace.Sink.memory () in
  let tel = Trace.Timeseries.create () in
  let next = ref 0 in
  let reset () =
    Perseas.set_sink t sink;
    Perseas.set_telemetry t tel;
    List.iteri
      (fun i s -> Netram.Server.set_telemetry s tel ~label:(Printf.sprintf "mirror%d" i))
      servers;
    Trace.Timeseries.rate tel ~name:"rate.tps" ~source:"perseas.committed";
    Trace.Timeseries.rate tel ~name:"rate.bytes_per_s" ~source:"nic.bytes";
    Trace.Timeseries.sample tel ~at:(Clock.now clock);
    next := Clock.now clock + interval
  in
  let observe _ =
    while !next <= Clock.now clock do
      Trace.Timeseries.sample tel ~at:!next;
      next := !next + interval
    done
  in
  ignore
    (Measure.workload ~reset ~observe (Testbed.instance bed) (mix_of mix) ~warmup:0 ~iters);
  (tel, sink)

let timeline mix =
  let label = mix_label mix in
  (* The big mix gets a shorter run and a grid matched to its ~1.6 ms
     transactions. *)
  let iters, interval =
    match mix with
    | Debit_credit_mix -> (2000, Time.us 50.0)
    | Large_update_mix -> (500, Time.us 200.0)
  in
  let tel, sink = timeline_run ~mix ~mirrors:2 ~iters ~interval () in
  let json_path = csv_path ("timeline_" ^ label) |> Filename.remove_extension in
  let json_path = json_path ^ ".json" in
  Trace.Export.chrome_json_to_file
    ~series:(Trace.Timeseries.samples tel)
    ~path:json_path ~spans:(Trace.Sink.spans sink) ~events:(Trace.Sink.events sink) ();
  let header, rows = Telemetry.csv ~tel in
  Table.save_csv ~path:(csv_path ("timeline_" ^ label)) ~header rows;
  Printf.printf "%s: %d samples x %d gauges -> %s; Chrome trace with counter tracks -> %s\n" label
    (Trace.Timeseries.sample_count tel)
    (List.length (Trace.Timeseries.names tel))
    (csv_path ("timeline_" ^ label))
    json_path

(* ------------------------------------------------------------------ *)
(* Protocol audit: the online invariant monitor over the fault
   harnesses *)

let audit () =
  (* The {!Trace.Monitor} watches every SCI piece of the adversarial
     harnesses live: undo-before-data, fence-last, per-mirror epoch
     monotonicity, convoy integrity and checkpoint-cut placement.  A
     violation dumps a flight-recorder bundle under results/postmortem
     and aborts the run — so a green audit is a machine-checked
     statement that the protocol as sent on the wire obeys its own
     rules under crashes, churn and checkpointing, not merely that the
     recovered images look right afterwards. *)
  let dir = Filename.concat "results" "postmortem" in
  let module C = Crashpoint in
  let sweeps =
    [
      C.sweep ~postmortem:dir (C.commit_scenario ~mirrors:2 ());
      C.sweep ~victim:(C.Mirror 0) ~postmortem:dir (C.commit_scenario ~mirrors:2 ());
      C.sweep ~postmortem:dir (C.concurrent_scenario ~mirrors:1 ());
      C.sweep ~postmortem:dir (C.checkpoint_scenario ());
      C.sweep ~victim:(C.Recovering { in_place_first = true }) ~postmortem:dir
        (C.recovery_scenario ());
      C.sweep ~victim:(C.Recovering { in_place_first = false }) ~postmortem:dir
        (C.recovery_scenario ());
      (* Shard failover: a shard primary dies at every packet of its
         own commit and of a phase-switch fence + cross-shard drain,
         with the monitor checking the STAR rule live. *)
      C.sweep ~postmortem:dir (C.shard_commit_scenario ());
      C.sweep ~postmortem:dir (C.shard_fence_scenario ());
    ]
  in
  (* Churn with background checkpointing: recruitment resyncs, log
     truncations and checkpoint cuts all land under the monitor. *)
  let params = { Churn.default_params with checkpoint_interval = Some (Time.ms 8.0) } in
  let r = Churn.run ~params ~postmortem:dir () in
  let header = [ "harness"; "work"; "monitor alerts" ] in
  let rows =
    List.map
      (fun (s : C.report) ->
        [
          Printf.sprintf "crash-sweep %s (%s dies)" s.C.label (C.victim_label s.C.victim);
          Printf.sprintf "%d crash points" (List.length s.C.points);
          "0";
        ])
      sweeps
    @ [
        [
          "churn + checkpoints";
          Printf.sprintf "%d txns, %d injections" r.Churn.committed (List.length r.Churn.injections);
          "0";
        ];
      ]
  in
  Table.print ~title:"Protocol audit: online invariant monitor across the fault harnesses" ~header
    rows;
  Table.save_csv ~path:(csv_path "audit") ~header rows;
  print_endline
    "audit green: zero invariant violations on the wire; a failure would have left a post-mortem \
     bundle under results/postmortem/"

(* ------------------------------------------------------------------ *)
(* R12: tail attribution and the analytic cost model *)

type explained = {
  ex_label : string;
  ex_mirrors : int;
  ex_result : Measure.result;
  ex_tail : Trace.Tail.t;
  ex_model : Costmodel.t;
  ex_pkts64 : int;  (** NIC 64-byte packet delta over the whole traced window. *)
  ex_pkts16 : int;
  ex_bytes : int;  (** NIC bytes written over the window. *)
}

let explain_run ?config ~mix ~mirrors ~warmup ~iters () =
  let bed = Testbed.make ?config ~mirrors () in
  let nic = Cluster.nic bed.cluster in
  let model =
    Costmodel.create ~config:(Perseas.config bed.perseas) ~params:(Sci.Nic.params nic) ()
  in
  let tail = Trace.Tail.create () in
  (* Ring + model tee'd on one stream, attached after setup; the NIC
     counters reset at the same instant so the model's settled total is
     comparable to the hardware delta over the whole traced window
     (warmup included — the model watches every fence, not just the
     measured ones). *)
  let sink = Trace.Sink.tee [ Trace.Sink.memory (); Costmodel.sink model ] in
  let reset () =
    Perseas.set_sink bed.perseas sink;
    Sci.Nic.reset_counters nic
  in
  let result =
    Measure.workload ~reset ~sink ~tail (Testbed.instance bed) (mix_of mix) ~warmup ~iters
  in
  let c = Sci.Nic.counters nic in
  {
    ex_label = mix_label mix;
    ex_mirrors = mirrors;
    ex_result = result;
    ex_tail = tail;
    ex_model = model;
    ex_pkts64 = c.Sci.Nic.packets64;
    ex_pkts16 = c.Sci.Nic.packets16;
    ex_bytes = c.Sci.Nic.bytes_written;
  }

(* Fraction of an exemplar's end-to-end latency covered by named [txn]
   phases — the spans partition the transaction, so anything below 1.0
   is clock charge no phase claims. *)
let exemplar_coverage (e : Trace.Tail.exemplar) =
  if e.Trace.Tail.e_latency_us <= 0. then 1.
  else
    let covered =
      List.fold_left
        (fun acc (s : Trace.Span.t) ->
          if s.Trace.Span.cat = "txn" then acc +. Trace.Span.duration_us s else acc)
        0. e.Trace.Tail.e_spans
    in
    covered /. e.Trace.Tail.e_latency_us

(* Every phase that saw a sample, with its p99 and that p99's share of
   the end-to-end [p99]. *)
let phase_shares ~p99 phases =
  List.filter_map
    (fun (name, h) ->
      if Stats.Histogram.count h = 0 then None
      else
        let pp99 = Stats.Histogram.percentile h 99. in
        Some (name, h, pp99, pp99 /. p99))
    phases

(* Sum of the named phases' p99s over the end-to-end p99. *)
let attribution x =
  List.fold_left (fun acc (_, p) -> acc +. p) 0. (Trace.Tail.phase_p99s x.ex_tail)
  /. x.ex_result.Measure.p99_us

(* The R12 contract for one cell: exact cost accounting, every packet
   attributed, named phases covering >= 95% of the p99, and a worst-K
   exemplar retained.  The first broken gate, if any. *)
let explain_verdict x =
  let m = x.ex_model in
  let pred = Costmodel.predicted_total m in
  if Costmodel.drift_count m <> 0 then Some "cost model drifted from the NIC piece stream"
  else if Costmodel.pending m <> 0 then Some "unfenced commit units at end of run"
  else if Costmodel.cost_packets (Costmodel.unattributed m) <> 0 then
    Some "unattributed packets in a steady-state window"
  else if pred.Costmodel.pkts64 <> x.ex_pkts64 || pred.Costmodel.pkts16 <> x.ex_pkts16 then
    Some "settled predictions do not sum to the NIC counter delta"
  else if attribution x < 0.95 then Some "named phases attribute < 95% of the measured p99"
  else if Trace.Tail.exemplars x.ex_tail = [] then Some "no exemplar transaction retained"
  else None

(* The per-cell report: who owns the p99 (per phase and per mirror),
   the cost model against the NIC counters, and the worst [exemplars]
   timelines stitched across nodes. *)
let print_explained ?(exemplars = 3) x =
  let r = x.ex_result in
  let p99 = r.Measure.p99_us in
  Printf.printf "%s, %d mirror(s): %.0f tps, mean %.2f us, p99 %.2f us over %d txns\n\n" x.ex_label
    x.ex_mirrors r.Measure.tps r.Measure.mean_us p99 r.Measure.iters;
  Table.print ~title:"Tail attribution: per-phase latency percentiles (share = phase p99 / e2e p99)"
    ~header:[ "phase"; "count"; "p50_us"; "p99_us"; "share" ]
    (List.map
       (fun (name, h, pp99, share) ->
         [
           name;
           string_of_int (Stats.Histogram.count h);
           Printf.sprintf "%.2f" (Stats.Histogram.percentile h 50.);
           Printf.sprintf "%.2f" pp99;
           Printf.sprintf "%.1f%%" (100. *. share);
         ])
       (phase_shares ~p99
          (Trace.Tail.phases x.ex_tail
          @ List.map
              (fun ((name, mirror), h) -> (Printf.sprintf "  %s[m%d]" name mirror, h))
              (Trace.Tail.mirror_phases x.ex_tail))));
  Printf.printf "named phases attribute %.1f%% of the measured p99\n\n" (100. *. attribution x);
  let m = x.ex_model in
  Table.print ~title:"Analytic cost model vs NIC piece stream (settled commit units)"
    ~header:[ "class"; "pred 64B"; "meas 64B"; "pred 16B"; "meas 16B"; "pred B"; "meas B" ]
    (List.map
       (fun (cls, (p : Costmodel.cost), (c : Costmodel.cost)) ->
         cls
         :: List.map string_of_int [ p.pkts64; c.pkts64; p.pkts16; c.pkts16; p.bytes; c.bytes ])
       (Costmodel.classes m));
  let pred = Costmodel.predicted_total m in
  Printf.printf
    "settled %d commit units: predicted %d pkts / %d B, NIC counted %d pkts / %d B, %d drift \
     alert(s), %d unattributed pkt(s)\n"
    (Costmodel.units_checked m) (Costmodel.cost_packets pred) pred.Costmodel.bytes
    (x.ex_pkts64 + x.ex_pkts16) x.ex_bytes (Costmodel.drift_count m)
    (Costmodel.cost_packets (Costmodel.unattributed m));
  List.iter (fun a -> Printf.printf "  DRIFT %s\n" (Costmodel.describe a)) (Costmodel.alerts m);
  let retained = Trace.Tail.exemplars x.ex_tail in
  Printf.printf "\nworst-%d exemplar transactions (of %d retained):\n"
    (min exemplars (List.length retained))
    (List.length retained);
  List.iteri
    (fun i (e : Trace.Tail.exemplar) ->
      if i < exemplars then begin
        Printf.printf "-- exemplar %d: txn %s, iteration %d, %.2f us (%.1f%% phase-covered)\n"
          (i + 1)
          (Option.value ~default:"?" (Trace.Tail.exemplar_txn e))
          e.Trace.Tail.e_seq e.Trace.Tail.e_latency_us
          (100. *. exemplar_coverage e);
        List.iter
          (fun tl ->
            print_string (Trace.Causal.render tl);
            print_newline ())
          (Trace.Tail.timelines e)
      end)
    retained

let explain () =
  let cells =
    List.map
      (fun mirrors -> explain_run ~mix:Debit_credit_mix ~mirrors ~warmup:200 ~iters:2000 ())
      [ 1; 2; 3 ]
  in
  let header = [ "workload"; "mirrors"; "phase"; "count"; "p99_us"; "share_p99" ] in
  let rows =
    List.concat_map
      (fun x ->
        let p99 = x.ex_result.Measure.p99_us in
        let prefix = [ x.ex_label; string_of_int x.ex_mirrors ] in
        (prefix @ [ "end-to-end"; string_of_int x.ex_result.Measure.iters; Table.fmt_us p99; "" ])
        :: List.map
             (fun (name, h, pp99, share) ->
               prefix
               @ [
                   name;
                   string_of_int (Stats.Histogram.count h);
                   Table.fmt_us pp99;
                   Printf.sprintf "%.3f" share;
                 ])
             (phase_shares ~p99 (Trace.Tail.phases x.ex_tail)))
      cells
  in
  Table.print ~title:"Tail attribution: per-phase p99 share of end-to-end p99 (debit-credit)"
    ~header rows;
  Table.save_csv ~path:(csv_path "tail_attribution") ~header rows;
  List.iter
    (fun x ->
      print_newline ();
      print_explained x;
      Option.iter (fun msg -> failwith ("explain: " ^ msg)) (explain_verdict x))
    cells;
  print_endline
    "explain green: zero cost-model drift, all packets attributed, worst-K exemplars retained"

(* ------------------------------------------------------------------ *)
(* R13: sharding scale-out *)

(* One R13 point: a TPC-scaled bank of [scale] branches (10^5 accounts
   each, Zipf-hot) split evenly across [shards], floored at one branch
   per shard. *)
let sharding_params ?scale ~shards () =
  let base = Workloads.Debit_credit.scaled_params ~tps:10_000 () in
  let scale = Option.value scale ~default:base.Workloads.Debit_credit.scale in
  { base with scale = max 1 (scale / shards) }

let sharding_cell ?mirrors ?clients ?scale ?total ~shards ~cross_per_100 () =
  Sharding.run_cell ?mirrors ?clients ~params:(sharding_params ?scale ~shards ()) ~warmup:400 ?total
    ~shards ~cross_per_100 ()

let sharding_header =
  [
    "shards";
    "cross/100";
    "singles";
    "cross";
    "switches";
    "conflicts";
    "elapsed (us)";
    "tps";
    "speedup";
    "pkts/txn";
  ]

let sharding_rows cells =
  List.map
    (fun (c : Sharding.cell) ->
      let one_shard =
        List.find_opt
          (fun (b : Sharding.cell) -> b.c_shards = 1 && b.c_cross_per_100 = c.c_cross_per_100)
          cells
      in
      [
        string_of_int c.c_shards;
        string_of_int c.c_cross_per_100;
        string_of_int c.c_committed;
        string_of_int c.c_cross;
        string_of_int c.c_switches;
        string_of_int c.c_conflicts;
        Printf.sprintf "%.0f" c.c_elapsed_us;
        Table.fmt_tps c.c_tps;
        (match one_shard with Some b -> Table.fmt_ratio (c.c_tps /. b.c_tps) | None -> "-");
        Printf.sprintf "%.1f" c.c_pkts_per_txn;
      ])
    cells

let sharding () =
  (* Aggregate debit-credit throughput vs shard count at a fixed mirror
     factor, under three cross-shard mixes.  One TPC-scaled bank —
     10 branches = 10^6 accounts, Zipf-hot — is split evenly across the
     shards (floored at one branch group per shard, so the 8- and
     16-shard points grow the bank the way TPC scaling would).  Each
     shard is a full replicated world on its own clock; aggregate tps
     is measured on the frontier clock, so the parallel-phase speedup
     and the single-master drain stalls both land in the number. *)
  let shard_counts = [ 1; 2; 4; 8; 16 ] in
  let mixes = [ 0; 5; 20 ] in
  let cells =
    List.concat_map
      (fun cross ->
        List.map
          (fun shards -> sharding_cell ~total:4000 ~shards ~cross_per_100:cross ())
          shard_counts)
      mixes
  in
  let tps_at ~shards ~cross =
    match
      List.find_opt
        (fun c -> c.Sharding.c_shards = shards && c.Sharding.c_cross_per_100 = cross)
        cells
    with
    | Some c -> c.Sharding.c_tps
    | None -> failwith "sharding: missing cell"
  in
  let rows = sharding_rows cells in
  Table.print
    ~title:"Sharding: aggregate debit-credit tps vs shard count (1 mirror/shard, Zipf 0.8)"
    ~header:sharding_header rows;
  Table.save_csv ~path:(csv_path "sharding") ~header:sharding_header rows;
  (* The scale-out acceptance bar: with no cross-shard traffic, four
     primaries must buy at least 3x one primary at equal mirror
     factor. *)
  let s1 = tps_at ~shards:1 ~cross:0 and s4 = tps_at ~shards:4 ~cross:0 in
  if s4 < 3.0 *. s1 then
    failwith
      (Printf.sprintf "sharding: 4-shard tps %.0f is under 3x the 1-shard %.0f" s4 s1);
  Printf.printf "sharding green: 4 shards = %.2fx of 1 shard at 0%% cross-shard\n"
    (s4 /. s1)

(* ------------------------------------------------------------------ *)

let names =
  [
    ("fig5", "Figure 5: SCI remote write latency vs size", fig5);
    ("fig6", "Figure 6: PERSEAS transaction overhead vs size", fig6);
    ("table1", "Table 1: PERSEAS debit-credit / order-entry throughput", table1);
    ("compare-synthetic", "Small synthetic transactions across engines", compare_synthetic);
    ("compare-bench", "debit-credit and order-entry across engines", compare_bench);
    ("db-size-sweep", "PERSEAS throughput vs database size", db_size_sweep);
    ("recovery", "Crash mid-commit and recover from the mirror", recovery);
    ("crash-sweep", "Systematic crash at every packet boundary, oracle-checked", crash_sweep);
    ("churn", "Mirror churn with spare-pool self-healing, zero committed-data loss", churn);
    ("copy-counts", "Per-transaction copy and I/O counts", copy_counts);
    ("ablation-memcpy", "sci_memcpy alignment optimisation on/off", ablation_memcpy);
    ("elision", "Redundancy elision: first-write-only undo + coalesced commit vs naive", elision);
    ("group-commit", "RVM group commit vs PERSEAS", group_commit);
    ("remote-wal-load", "Remote-memory WAL: burst vs sustained load", remote_wal_load);
    ("replication-degree", "PERSEAS throughput vs number of mirrors", replication_degree);
    ("availability", "Availability / data-loss Monte Carlo", availability);
    ("trend", "Technology-trend projection: the gap widens", trend);
    ("paging", "Remote-memory paging vs disk swap", paging);
    ("datastores", "Transactional hash map and B+-tree ops/s", datastores);
    ("latency-breakdown", "Per-phase transaction latency from traces", latency_breakdown);
    ("telemetry", "Gauge time-series under churn, checked against the supervisor log", telemetry);
    ("concurrency", "Concurrent disjoint clients: tps and pkts/txn vs offered load", concurrency);
    ("checkpoint", "Fuzzy checkpoints: recovery time flat vs database size", checkpoint);
    ("audit", "Online protocol-invariant monitor over crash sweeps and churn", audit);
    ("explain", "Tail attribution + analytic cost model vs NIC counters", explain);
    ("sharding", "Multi-primary sharding: aggregate tps vs shard count and cross-shard mix", sharding);
  ]

let print_list () =
  List.iter (fun (name, descr, _) -> Printf.printf "  %-18s %s\n" name descr) names

let run = function
  | [] -> Ok (List.iter (fun (_, _, run) -> run ()) names)
  | wanted -> (
      let find n = List.find_opt (fun (m, _, _) -> m = n) names in
      match List.filter (fun n -> find n = None) wanted with
      | [] -> Ok (List.iter (fun n -> Option.iter (fun (_, _, run) -> run ()) (find n)) wanted)
      | missing -> Error ("unknown experiment(s): " ^ String.concat ", " missing))
