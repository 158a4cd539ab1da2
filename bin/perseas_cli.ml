(* perseas — command-line front end to the PERSEAS reproduction.

   Subcommands:
     experiments [NAME...]   regenerate paper tables/figures (all by default)
     workload                run one workload on one engine and report tps
     availability            run the failure/repair Monte Carlo
     crash-demo              crash a primary mid-commit and recover, verbosely

   Examples:
     perseas_cli experiments fig6 table1
     perseas_cli workload -e rvm -w debit-credit -n 2000
     perseas_cli workload -e perseas -w synthetic --tx-size 4096
     perseas_cli availability --trials 500 *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose =
  let doc = "Enable verbose logging (mirror losses, recovery notes)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* ------------------------------------------------------------------ *)
(* experiments                                                         *)

let experiments_cmd =
  let names =
    let doc = "Experiments to run (see --list). All when omitted." in
    Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc)
  in
  let list_flag =
    let doc = "List available experiments and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let run verbose list names =
    setup_logs verbose;
    if list then `Ok (Harness.Experiments.print_list ())
    else match Harness.Experiments.run names with Ok () -> `Ok () | Error msg -> `Error (false, msg)
  in
  let doc = "Regenerate the paper's tables and figures (CSV copies under results/)." in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(ret (const run $ verbose $ list_flag $ names))

(* ------------------------------------------------------------------ *)
(* workload                                                            *)

let engine_arg =
  let all = [ "perseas"; "rvm"; "rvm-rio"; "vista"; "remote-wal" ] in
  let doc = "Engine: " ^ String.concat ", " all ^ "." in
  Arg.(value & opt (enum (List.map (fun e -> (e, e)) all)) "perseas" & info [ "e"; "engine" ] ~doc)

let workload_arg =
  let all = [ "debit-credit"; "order-entry"; "synthetic" ] in
  let doc = "Workload: " ^ String.concat ", " all ^ "." in
  Arg.(
    value
    & opt (enum (List.map (fun w -> (w, w)) all)) "debit-credit"
    & info [ "w"; "workload" ] ~doc)

let iters_arg =
  Arg.(value & opt int 10_000 & info [ "n"; "iters" ] ~doc:"Measured transactions.")

let warmup_arg = Arg.(value & opt int 500 & info [ "warmup" ] ~doc:"Unmeasured warmup transactions.")

let tx_size_arg =
  Arg.(value & opt int 256 & info [ "tx-size" ] ~doc:"Bytes touched per synthetic transaction.")

let mirrors_arg =
  Arg.(value & opt int 1 & info [ "m"; "mirrors" ] ~doc:"Mirror count (PERSEAS only).")

let histogram_arg =
  Arg.(value & flag & info [ "histogram" ] ~doc:"Print a log-scale latency histogram.")

let instance_of = function
  | "perseas" -> Harness.Testbed.perseas_instance ()
  | "rvm" -> Harness.Testbed.rvm_instance ()
  | "rvm-rio" -> Harness.Testbed.rvm_instance ~rio:true ()
  | "vista" -> Harness.Testbed.vista_instance ()
  | "remote-wal" -> Harness.Testbed.remote_wal_instance ()
  | other -> invalid_arg other

let workload_cmd =
  let run verbose engine workload iters warmup tx_size mirrors histogram =
    setup_logs verbose;
    if iters <= 0 || warmup < 0 then `Error (false, "iters must be positive")
    else begin
      let inst =
        if engine = "perseas" && mirrors > 1 then Harness.Testbed.(instance (make ~mirrors ()))
        else instance_of engine
      in
      let mix =
        match workload with
        | "debit-credit" -> Harness.Measure.Debit_credit Workloads.Debit_credit.default_params
        | "order-entry" -> Harness.Measure.Order_entry Workloads.Order_entry.default_params
        | _ -> Harness.Measure.Synthetic { db_size = 8 * 1024 * 1024; tx_size }
      in
      let hist = Sim.Stats.Histogram.create ~sub_buckets:1 () in
      let result =
        Harness.Measure.workload ~observe:(Sim.Stats.Histogram.add hist) inst mix ~warmup ~iters
      in
      Format.printf "%s / %s: %a@." (Harness.Testbed.label inst) workload Harness.Measure.pp_result
        result;
      if histogram && Sim.Stats.Histogram.count hist > 0 then begin
        print_endline "latency histogram (us):";
        List.iter
          (fun (lo, hi, n) -> Printf.printf "  [%8.2f, %8.2f)  %s\n" lo hi (String.make (max 1 (60 * n / iters)) '#'))
          (Sim.Stats.Histogram.buckets hist)
      end;
      `Ok ()
    end
  in
  let doc = "Run one workload on one engine in virtual time and report throughput." in
  Cmd.v (Cmd.info "workload" ~doc)
    Term.(
      ret
        (const run $ verbose $ engine_arg $ workload_arg $ iters_arg $ warmup_arg $ tx_size_arg
       $ mirrors_arg $ histogram_arg))

(* ------------------------------------------------------------------ *)
(* availability                                                        *)

let availability_cmd =
  let trials = Arg.(value & opt int 200 & info [ "trials" ] ~doc:"Monte-Carlo trials.") in
  let years =
    Arg.(value & opt float 10. & info [ "years" ] ~doc:"Simulated horizon per trial, in years.")
  in
  let run verbose trials years =
    setup_logs verbose;
    if trials <= 0 || years <= 0. then `Error (false, "trials and years must be positive")
    else begin
      let params =
        { Harness.Availability.default_params with horizon = Sim.Time.s (years *. 365. *. 86_400.) }
      in
      List.iter
        (fun d ->
          Format.printf "%a@." Harness.Availability.pp_result
            (Harness.Availability.simulate ~params ~trials d))
        Harness.Availability.standard_deployments;
      `Ok ()
    end
  in
  let doc = "Failure/repair Monte Carlo over the paper's deployments." in
  Cmd.v (Cmd.info "availability" ~doc) Term.(ret (const run $ verbose $ trials $ years))

(* ------------------------------------------------------------------ *)
(* crash-demo                                                          *)

let crash_demo_cmd =
  let cut = Arg.(value & opt int 2 & info [ "cut" ] ~doc:"Crash after this many commit packets.") in
  let run verbose cut =
    setup_logs verbose;
    let bed = Harness.Testbed.perseas_bed () in
    let t = bed.perseas in
    let seg = Perseas.malloc t ~name:"demo" ~size:4096 in
    Perseas.write t seg ~off:0 (Bytes.make 4096 '.');
    Perseas.init_remote_db t;
    Printf.printf "database live, epoch %Ld\n" (Perseas.epoch t);
    let txn = Perseas.begin_transaction t in
    Perseas.set_range txn seg ~off:0 ~len:512;
    Perseas.write t seg ~off:0 (Bytes.make 512 'X');
    let total = Perseas.commit_packets txn in
    Printf.printf "commit will send %d packets; crashing after %d\n" total cut;
    let exception Crash in
    let sent = ref 0 in
    Perseas.set_packet_hook t (Some (fun () -> if !sent >= cut then raise Crash else incr sent));
    (match Perseas.commit txn with
    | () -> print_endline "commit completed (cut beyond packet count)"
    | exception Crash -> print_endline "primary crashed mid-commit");
    Perseas.set_packet_hook t None;
    ignore (Cluster.crash_node bed.cluster 0 Cluster.Failure.Software_error);
    let t2 = Perseas.recover ~cluster:bed.cluster ~local:2 ~server:bed.server () in
    let seg2 = Option.get (Perseas.segment t2 "demo") in
    let first = Bytes.get (Perseas.read t2 seg2 ~off:0 ~len:1) 0 in
    Printf.printf "recovered on the spare node: epoch %Ld, first byte %C -> the transaction %s\n"
      (Perseas.epoch t2) first
      (if first = 'X' then "survived (commit point reached)" else "was rolled back atomically");
    `Ok ()
  in
  let doc = "Crash the primary mid-commit at a chosen packet and recover on a spare node." in
  Cmd.v (Cmd.info "crash-demo" ~doc) Term.(ret (const run $ verbose $ cut))

(* ------------------------------------------------------------------ *)
(* crash-sweep                                                         *)

let crash_sweep_cmd =
  let scenario_arg =
    let doc =
      "Scenario: commit (multi-range debit-credit), attach (mirror resync), overlap \
       (redundancy-elision stress mix), overlap-naive (same mix, elision off), concurrent \
       (a group-commit flush of three clients with a fourth transaction open across it), \
       checkpoint (commits interleaved with every phase of a fuzzy checkpoint), shard-commit \
       (a single-shard commit with a bystander shard committing alongside), shard-fence (a \
       phase-switch fence draining a cross-shard transaction; the victim shard's primary or \
       mirror dies at each packet) or recovery (a checkpointed recovery cut at each of its own \
       packets: the recovering node dies and recovery reruns on another node, swept with the \
       target's node first and with the spare first; --victim does not apply)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("commit", `Commit);
               ("attach", `Attach);
               ("overlap", `Overlap);
               ("overlap-naive", `Overlap_naive);
               ("concurrent", `Concurrent);
               ("checkpoint", `Checkpoint);
               ("shard-commit", `Shard_commit);
               ("shard-fence", `Shard_fence);
               ("recovery", `Recovery);
             ])
          `Commit
      & info [ "scenario" ] ~doc)
  in
  let victim_arg =
    let doc =
      "Who dies at each packet: primary (the default; recover on the spare), mirror, or \
       ckpt-target (the checkpoint scenario's target node; every commit must still land)."
    in
    Arg.(
      value
      & opt
          (some (enum [ ("primary", `Primary); ("mirror", `Mirror); ("ckpt-target", `Ckpt_target) ]))
          None
      & info [ "victim" ] ~doc)
  in
  let mirror_index_arg =
    Arg.(value & opt int 0 & info [ "mirror-index" ] ~doc:"Which mirror dies (with --victim mirror).")
  in
  let sweep_mirrors_arg =
    Arg.(value & opt int 2 & info [ "m"; "mirrors" ] ~doc:"Mirror count.")
  in
  let ranges_arg =
    Arg.(value & opt int 3 & info [ "ranges" ] ~doc:"Ranges per transaction (commit scenario).")
  in
  let range_len_arg =
    Arg.(value & opt int 256 & info [ "range-len" ] ~doc:"Bytes per range (commit scenario).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Also write per-point rows to this CSV file.")
  in
  let run verbose scenario victim mirror_index mirrors ranges range_len csv =
    setup_logs verbose;
    if mirrors < 1 || ranges < 1 || range_len < 1 then
      `Error (false, "mirrors, ranges and range-len must be positive")
    else if victim = Some `Mirror && (mirror_index < 0 || mirror_index >= mirrors) then
      `Error (false, Printf.sprintf "mirror-index must be in [0, %d)" mirrors)
    else if victim = Some `Ckpt_target && scenario <> `Checkpoint then
      `Error (false, "--victim ckpt-target requires --scenario checkpoint")
    else if victim <> None && scenario = `Recovery then
      `Error (false, "--scenario recovery kills the recovering node; --victim does not apply")
    else begin
      let module C = Harness.Crashpoint in
      let sweeps =
        let one victim scenario = [ (victim, scenario) ] in
        let victim =
          match victim with
          | None | Some `Primary -> C.Primary
          | Some `Mirror -> C.Mirror mirror_index
          | Some `Ckpt_target -> C.Ckpt_target
        in
        match scenario with
        | `Commit -> one victim (C.commit_scenario ~mirrors ~ranges ~range_len ())
        | `Attach -> one victim (C.attach_scenario ~mirrors ())
        | `Overlap -> one victim (C.overlap_scenario ~mirrors ())
        | `Overlap_naive -> one victim (C.overlap_scenario ~mirrors ~elision:false ())
        | `Concurrent -> one victim (C.concurrent_scenario ~mirrors ())
        | `Checkpoint -> one victim (C.checkpoint_scenario ~mirrors ())
        | `Shard_commit -> one victim (C.shard_commit_scenario ~mirrors ())
        | `Shard_fence -> one victim (C.shard_fence_scenario ~mirrors ())
        | `Recovery ->
            List.map
              (fun in_place_first ->
                (C.Recovering { in_place_first }, C.recovery_scenario ~mirrors ()))
              [ true; false ]
      in
      match List.map (fun (victim, scenario) -> C.sweep ~victim scenario) sweeps with
      | reports ->
          List.iter
            (fun (report : C.report) ->
              Harness.Table.print
                ~title:
                  (Printf.sprintf "Crash-point sweep: %s, %s dies at each of %d packet boundaries"
                     report.C.label (C.victim_label report.C.victim) report.C.total_packets)
                ~header:C.csv_header (C.report_rows report);
              Printf.printf
                "all %d points recovered to a legal image: %d old, %d new, %d needed undo replay\n"
                (List.length report.C.points) report.C.old_images report.C.new_images
                report.C.repaired)
            reports;
          Option.iter
            (fun path ->
              Harness.Table.save_csv ~path ~header:C.csv_header
                (List.concat_map C.report_rows reports))
            csv;
          `Ok ()
      | exception C.Oracle_violation msg -> `Error (false, "oracle violation: " ^ msg)
    end
  in
  let doc =
    "Crash at every packet boundary of a workload and check recovery against the atomicity oracle."
  in
  Cmd.v (Cmd.info "crash-sweep" ~doc)
    Term.(
      ret
        (const run $ verbose $ scenario_arg $ victim_arg $ mirror_index_arg $ sweep_mirrors_arg
       $ ranges_arg $ range_len_arg $ csv_arg))

(* ------------------------------------------------------------------ *)
(* checkpoint                                                          *)

let checkpoint_cmd =
  let txns =
    Arg.(value & opt int 2_000 & info [ "n"; "txns" ] ~doc:"Transactions before the checkpoint.")
  in
  let tail =
    Arg.(
      value
      & opt int 200
      & info [ "tail" ] ~doc:"Transactions after the checkpoint (recovered from the mirror tail).")
  in
  let run verbose txns tail =
    setup_logs verbose;
    if txns < 0 || tail < 0 then `Error (false, "txns and tail must be non-negative")
    else begin
      let c = Harness.Experiments.checkpoint_cycle ~txns ~tail () in
      Printf.printf
        "checkpoint generation %Ld published at epoch %Ld: shipped %d B, truncated %d B of undo \
         (high-water mark %d -> %d B)\n"
        c.generation c.cut c.shipped_bytes c.truncated_bytes c.undo_hwm_before c.undo_hwm_after;
      if not c.mirrors_clean then `Error (false, "recovered database has divergent mirrors")
      else begin
        Printf.printf
          "primary killed after %d more txns; recovered on the checkpoint target's node in %.1f \
           us (epoch %Ld, mirrors clean)\n"
          tail c.recovery_us c.recovered_epoch;
        `Ok ()
      end
    end
  in
  let doc =
    "Run a workload, publish a fuzzy checkpoint (truncating the undo log), then crash the \
     primary and recover from the checkpoint plus the mirror tail."
  in
  Cmd.v (Cmd.info "checkpoint" ~doc) Term.(ret (const run $ verbose $ txns $ tail))

(* ------------------------------------------------------------------ *)
(* churn                                                               *)

let churn_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Failure-schedule seed.") in
  let churn_mirrors =
    Arg.(value & opt int 2 & info [ "m"; "mirrors" ] ~doc:"Replication target (initial mirrors).")
  in
  let spares = Arg.(value & opt int 2 & info [ "spares" ] ~doc:"Spare-pool size.") in
  let duration_ms =
    Arg.(value & opt float 40. & info [ "duration-ms" ] ~doc:"Failure-injection horizon (virtual ms).")
  in
  let mtbf_us =
    Arg.(value & opt float 1500. & info [ "mtbf-us" ] ~doc:"Mean time between failures (virtual us).")
  in
  let outage_us =
    Arg.(value & opt float 400. & info [ "outage-us" ] ~doc:"Mean outage before repair (virtual us).")
  in
  let pause_fraction =
    Arg.(
      value
      & opt float 0.5
      & info [ "pause-fraction" ] ~doc:"Probability a failure is a transient pause vs a node crash.")
  in
  let run verbose seed mirrors spares duration_ms mtbf_us outage_us pause_fraction =
    setup_logs verbose;
    if mirrors < 1 || spares < 1 then `Error (false, "mirrors and spares must be positive")
    else if duration_ms <= 0. || mtbf_us <= 0. || outage_us <= 0. then
      `Error (false, "duration, mtbf and outage must be positive")
    else if pause_fraction < 0. || pause_fraction > 1. then
      `Error (false, "pause-fraction must be in [0, 1]")
    else begin
      let module C = Harness.Churn in
      let params =
        {
          C.default_params with
          seed;
          mirrors;
          spares;
          duration = Sim.Time.ms duration_ms;
          mtbf = Sim.Time.us mtbf_us;
          outage = Sim.Time.us outage_us;
          pause_fraction;
        }
      in
      let r = C.run ~params () in
      Harness.Table.print
        ~title:
          (Printf.sprintf
             "Churn: %d mirrors + %d spares, mtbf %.0f us, %.0f ms horizon (seed %d)" mirrors
             spares mtbf_us duration_ms seed)
        ~header:C.csv_header (C.report_rows r);
      Printf.printf
        "committed %d txns (%.0f tps under churn); %d injections over %d nodes; %d incremental / \
         %d full resyncs\n"
        r.C.committed r.C.tps
        (List.length r.C.injections)
        (List.length r.C.nodes_hit) r.C.incremental_resyncs r.C.full_resyncs;
      Harness.Table.save_csv ~path:(Filename.concat "results" "churn.csv") ~header:C.csv_header
        (C.report_rows r);
      match C.check r with
      | () ->
          print_endline
            "oracle: factor restored, mirrors scrubbed clean, no committed transaction lost";
          `Ok ()
      | exception C.Oracle_violation msg -> `Error (false, "oracle violation: " ^ msg)
    end
  in
  let doc =
    "Run a live workload under mirror churn and verify the supervisor heals with zero \
     committed-data loss."
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      ret
        (const run $ verbose $ seed $ churn_mirrors $ spares $ duration_ms $ mtbf_us $ outage_us
       $ pause_fraction))

(* ------------------------------------------------------------------ *)
(* trace                                                                *)

let mix_arg =
  let all = List.map (fun m -> (Harness.Experiments.mix_label m, m)) Harness.Experiments.latency_mixes in
  let doc = "Workload: " ^ String.concat ", " (List.map fst all) ^ "." in
  Arg.(value & pos 0 (enum all) Harness.Experiments.Debit_credit_mix & info [] ~docv:"WORKLOAD" ~doc)

let trace_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ]
          ~doc:"Perfetto JSON output path (default results/trace_$(i,WORKLOAD).json).")
  in
  let csv_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~doc:"Per-phase CSV output path (default results/trace_$(i,WORKLOAD)_phases.csv).")
  in
  let trace_iters = Arg.(value & opt int 500 & info [ "n"; "iters" ] ~doc:"Measured transactions.") in
  let trace_warmup = Arg.(value & opt int 50 & info [ "warmup" ] ~doc:"Unmeasured warmup transactions.") in
  let run verbose mix mirrors iters warmup out csv_out =
    setup_logs verbose;
    if iters <= 0 || warmup < 0 then `Error (false, "iters must be positive")
    else if mirrors < 1 then `Error (false, "mirrors must be positive")
    else begin
      let label = Harness.Experiments.mix_label mix in
      let tail = Trace.Tail.create () in
      let r, sink = Harness.Experiments.traced_run ~tail ~mix ~mirrors ~warmup ~iters () in
      let json_path =
        Option.value out ~default:(Filename.concat "results" ("trace_" ^ label ^ ".json"))
      in
      (* Worst-K exemplars ride along as named flow events, so the
         outliers read as arrow chains across the Perfetto tracks. *)
      let flows =
        List.concat_map
          (fun (e : Trace.Tail.exemplar) ->
            let name =
              Printf.sprintf "worst txn %s (%.1fus)"
                (Option.value ~default:"?" (Trace.Tail.exemplar_txn e))
                e.Trace.Tail.e_latency_us
            in
            List.map (fun tl -> (name, tl)) (Trace.Tail.timelines e))
          (Trace.Tail.exemplars tail)
      in
      Trace.Export.chrome_json_to_file ~flows ~path:json_path ~spans:(Trace.Sink.spans sink)
        ~events:(Trace.Sink.events sink) ();
      let header = Trace.Export.phase_csv_header in
      let rows = Trace.Export.phase_csv_rows r.Harness.Measure.phases in
      let csv_path =
        Option.value csv_out ~default:(Filename.concat "results" ("trace_" ^ label ^ "_phases.csv"))
      in
      Harness.Table.print
        ~title:(Printf.sprintf "%s, %d mirror(s): per-phase breakdown of %d transactions" label mirrors iters)
        ~header rows;
      Harness.Table.save_csv ~path:csv_path ~header rows;
      (* The taxonomy's soundness check: the txn-phase spans partition
         the measured window, so their sum must equal its extent. *)
      let phase_sum_us =
        List.fold_left (fun acc p -> acc +. p.Trace.total_us) 0. r.Harness.Measure.phases
      in
      let elapsed_us = Sim.Time.to_us r.Harness.Measure.elapsed in
      let drift = abs_float (phase_sum_us -. elapsed_us) /. elapsed_us in
      Printf.printf
        "%s: %.0f tps; phase sum %.1f us vs end-to-end %.1f us (drift %.3f%%)\n%d spans and %d \
         events -> %s (open in ui.perfetto.dev)\n"
        label r.Harness.Measure.tps phase_sum_us elapsed_us (100. *. drift)
        (Trace.Sink.span_count sink) (Trace.Sink.event_count sink) json_path;
      if drift > 0.01 then
        `Error (false, "phase spans do not account for the measured window (drift > 1%)")
      else `Ok ()
    end
  in
  let doc =
    "Trace one workload phase by phase and export Perfetto JSON plus a per-phase CSV breakdown."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret (const run $ verbose $ mix_arg $ mirrors_arg $ trace_iters $ trace_warmup $ out_arg
         $ csv_out_arg))

(* ------------------------------------------------------------------ *)
(* explain: tail attribution + cost-model accounting for one mix       *)

let explain_cmd =
  let ex_iters = Arg.(value & opt int 2000 & info [ "n"; "iters" ] ~doc:"Measured transactions.") in
  let ex_warmup =
    Arg.(value & opt int 200 & info [ "warmup" ] ~doc:"Unmeasured warmup transactions.")
  in
  let ex_exemplars =
    Arg.(value & opt int 3 & info [ "exemplars" ] ~doc:"Worst exemplar timelines to render.")
  in
  let run verbose mix mirrors iters warmup n_exemplars =
    setup_logs verbose;
    if iters <= 0 || warmup < 0 then `Error (false, "iters must be positive")
    else if mirrors < 1 then `Error (false, "mirrors must be positive")
    else begin
      let module E = Harness.Experiments in
      let module Cm = Harness.Costmodel in
      let x = E.explain_run ~mix ~mirrors ~warmup ~iters () in
      let r = x.E.ex_result in
      let tail = x.E.ex_tail in
      let model = x.E.ex_model in
      let p99 = r.Harness.Measure.p99_us in
      Printf.printf "%s, %d mirror(s): %.0f tps, mean %.2f us, p99 %.2f us over %d txns\n\n"
        x.E.ex_label mirrors r.Harness.Measure.tps r.Harness.Measure.mean_us p99
        r.Harness.Measure.iters;
      (* Per-phase (and per-mirror) tail: who owns the p99. *)
      let phase_rows =
        List.map
          (fun (name, h, pp99, share) ->
            [
              name;
              string_of_int (Sim.Stats.Histogram.count h);
              Printf.sprintf "%.2f" (Sim.Stats.Histogram.percentile h 50.);
              Printf.sprintf "%.2f" pp99;
              Printf.sprintf "%.1f%%" (100. *. share);
            ])
          (E.phase_shares ~p99
             (Trace.Tail.phases tail
             @ List.map
                 (fun ((name, mirror), h) -> (Printf.sprintf "  %s[m%d]" name mirror, h))
                 (Trace.Tail.mirror_phases tail)))
      in
      Harness.Table.print
        ~title:"Tail attribution: per-phase latency percentiles (share = phase p99 / e2e p99)"
        ~header:[ "phase"; "count"; "p50_us"; "p99_us"; "share" ]
        phase_rows;
      Printf.printf "named phases attribute %.1f%% of the measured p99\n\n" (100. *. E.attribution x);
      (* Cost model: predicted vs measured per packet class. *)
      Harness.Table.print ~title:"Analytic cost model vs NIC piece stream (settled commit units)"
        ~header:[ "class"; "pred 64B"; "meas 64B"; "pred 16B"; "meas 16B"; "pred B"; "meas B" ]
        (List.map
           (fun (cls, (p : Cm.cost), (m : Cm.cost)) ->
             [
               cls;
               string_of_int p.Cm.pkts64;
               string_of_int m.Cm.pkts64;
               string_of_int p.Cm.pkts16;
               string_of_int m.Cm.pkts16;
               string_of_int p.Cm.bytes;
               string_of_int m.Cm.bytes;
             ])
           (Cm.classes model));
      let pred = Cm.predicted_total model in
      Printf.printf
        "settled %d commit units: predicted %d pkts / %d B, NIC counted %d pkts / %d B, %d drift \
         alert(s), %d unattributed pkt(s)\n"
        (Cm.units_checked model) (Cm.cost_packets pred) pred.Cm.bytes
        (x.E.ex_pkts64 + x.E.ex_pkts16) x.E.ex_bytes (Cm.drift_count model)
        (Cm.cost_packets (Cm.unattributed model));
      List.iter (fun a -> Printf.printf "  DRIFT %s\n" (Cm.describe a)) (Cm.alerts model);
      (* Worst-K exemplars, stitched cross-node. *)
      let exemplars = Trace.Tail.exemplars tail in
      Printf.printf "\nworst-%d exemplar transactions (of %d retained):\n"
        (min n_exemplars (List.length exemplars))
        (List.length exemplars);
      List.iteri
        (fun i (e : Trace.Tail.exemplar) ->
          if i < n_exemplars then begin
            Printf.printf "-- exemplar %d: txn %s, iteration %d, %.2f us (%.1f%% phase-covered)\n"
              (i + 1)
              (Option.value ~default:"?" (Trace.Tail.exemplar_txn e))
              e.Trace.Tail.e_seq e.Trace.Tail.e_latency_us
              (100. *. E.exemplar_coverage e);
            List.iter
              (fun tl ->
                print_string (Trace.Causal.render tl);
                print_newline ())
              (Trace.Tail.timelines e)
          end)
        exemplars;
      match E.explain_verdict x with Some msg -> `Error (false, msg) | None -> `Ok ()
    end
  in
  let doc =
    "Explain where the tail goes: per-phase/per-mirror p99 attribution, worst-K exemplar \
     timelines, and the paper's analytic packet cost model checked live against the NIC counters."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      ret (const run $ verbose $ mix_arg $ mirrors_arg $ ex_iters $ ex_warmup $ ex_exemplars))

(* ------------------------------------------------------------------ *)
(* stats                                                                *)

let stats_cmd =
  let stats_iters = Arg.(value & opt int 1000 & info [ "n"; "iters" ] ~doc:"Transactions to run.") in
  let pretty_arg =
    Arg.(value & flag & info [ "pretty" ] ~doc:"Human-readable table instead of JSON.")
  in
  let run verbose mix mirrors iters pretty =
    setup_logs verbose;
    if iters <= 0 then `Error (false, "iters must be positive")
    else if mirrors < 1 then `Error (false, "mirrors must be positive")
    else begin
      let bed = Harness.Testbed.make ~mirrors () in
      ignore
        (Harness.Measure.workload (Harness.Testbed.instance bed) (Harness.Experiments.mix_of mix)
           ~warmup:0 ~iters);
      let stats = Perseas.stats bed.perseas in
      if pretty then Format.printf "%a@." Perseas.pp_stats stats
      else print_endline (Perseas.stats_to_json stats);
      `Ok ()
    end
  in
  let doc = "Run a workload and emit the engine's statistics counters as JSON." in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(ret (const run $ verbose $ mix_arg $ mirrors_arg $ stats_iters $ pretty_arg))

(* ------------------------------------------------------------------ *)
(* top: cluster-health dashboard from an instrumented churn run        *)

let top_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Failure-schedule seed.") in
  let mirrors =
    Arg.(value & opt int 2 & info [ "m"; "mirrors" ] ~doc:"Replication target (initial mirrors).")
  in
  let spares = Arg.(value & opt int 2 & info [ "spares" ] ~doc:"Spare-pool size.") in
  let duration_ms =
    Arg.(value & opt float 40. & info [ "duration-ms" ] ~doc:"Failure-injection horizon (virtual ms).")
  in
  let interval_us =
    Arg.(value & opt float 100. & info [ "interval-us" ] ~doc:"Sampling interval (virtual us).")
  in
  let run verbose seed mirrors spares duration_ms interval_us =
    setup_logs verbose;
    if mirrors < 1 || spares < 1 then `Error (false, "mirrors and spares must be positive")
    else if duration_ms <= 0. || interval_us <= 0. then
      `Error (false, "duration and interval must be positive")
    else begin
      let module C = Harness.Churn in
      let params =
        { C.default_params with seed; mirrors; spares; duration = Sim.Time.ms duration_ms }
      in
      let tail = Trace.Tail.create () in
      let r, tel =
        Harness.Telemetry.instrumented_churn ~params ~interval:(Sim.Time.us interval_us) ~tail ()
      in
      print_string (Harness.Telemetry.top ~tail r tel);
      `Ok ()
    end
  in
  let doc =
    "Textual cluster-health dashboard: run the churn schedule with the gauge sampler attached \
     and render replication state, rates and per-server liveness."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(ret (const run $ verbose $ seed $ mirrors $ spares $ duration_ms $ interval_us))

(* ------------------------------------------------------------------ *)
(* timeline: per-sample CSV + Perfetto counter tracks                  *)

let timeline_cmd =
  let run verbose mix =
    setup_logs verbose;
    Harness.Experiments.timeline mix;
    `Ok ()
  in
  let doc =
    "Run one instrumented workload and export the gauge time-series: per-sample CSV plus a \
     Chrome trace with counter tracks (open in Perfetto) under results/."
  in
  Cmd.v (Cmd.info "timeline" ~doc) Term.(ret (const run $ verbose $ mix_arg))

(* ------------------------------------------------------------------ *)
(* postmortem: flight recorder + protocol monitor, dumped on demand    *)

let postmortem_cmd =
  let out_arg =
    Arg.(
      value
      & opt string (Filename.concat "results" (Filename.concat "postmortem" "cli"))
      & info [ "o"; "out" ] ~doc:"Bundle output directory.")
  in
  let pm_txns =
    Arg.(value & opt int 200 & info [ "n"; "txns" ] ~doc:"Transactions to record before the dump.")
  in
  let inject_arg =
    Arg.(
      value
      & flag
      & info [ "inject" ]
          ~doc:
            "Replay an undo piece for an already-committed transaction into the monitor — a \
             protocol violation the engine never commits, demonstrating the typed alert and the \
             offending transaction's causal timeline in the bundle.")
  in
  let run verbose mirrors txns inject out =
    setup_logs verbose;
    if txns <= 0 then `Error (false, "txns must be positive")
    else if mirrors < 1 then `Error (false, "mirrors must be positive")
    else begin
      let f = Harness.Forensics.create () in
      let bed = Harness.Testbed.make ~mirrors () in
      let t = bed.perseas in
      (* Attached before set-up: the recorder sees the whole run. *)
      Harness.Forensics.attach f t;
      ignore
        (Harness.Measure.workload (Harness.Testbed.instance bed)
           (Harness.Experiments.mix_of Harness.Experiments.Debit_credit_mix)
           ~warmup:0 ~iters:txns);
      let offending = "2" in
      let cause =
        if inject then begin
          Trace.Monitor.event (Harness.Forensics.monitor f)
            {
              Trace.Event.name = "piece";
              cat = "sci";
              at = Sim.Clock.now bed.clock;
              args = [ ("op", "remote_undo"); ("node", "1"); ("txn", offending) ];
            };
          "seeded violation: undo replayed for committed txn " ^ offending
        end
        else "manual post-mortem dump"
      in
      let dir = Harness.Forensics.dump f ~dir:out ~cause ~stats:(Perseas.stats t) () in
      Printf.printf "recorded %d txns on %d mirror(s); %d monitor alert(s)\n" txns mirrors
        (Harness.Forensics.alert_count f);
      List.iter
        (fun a -> Format.printf "  %a@." Trace.Monitor.pp_alert a)
        (Harness.Forensics.alerts f);
      let timelines = Harness.Forensics.timelines f in
      (match Trace.Causal.find timelines ~txn:offending with
      | Some tl when inject ->
          print_endline "causal timeline of the offending transaction:";
          print_string (Trace.Causal.render tl)
      | _ ->
          Printf.printf "%d transaction timeline(s) in the ring; full set in %s\n"
            (List.length timelines)
            (Filename.concat dir "causal.txt"));
      Printf.printf "bundle: %s (header.json, trace.json, causal.txt, stats.json)\n" dir;
      if inject && Harness.Forensics.alert_count f = 0 then
        `Error (false, "injected violation produced no monitor alert")
      else `Ok ()
    end
  in
  let doc =
    "Run a replicated workload with the flight recorder and protocol monitor attached, then \
     dump the post-mortem bundle (Perfetto trace, causal cross-node timelines, engine stats)."
  in
  Cmd.v (Cmd.info "postmortem" ~doc)
    Term.(ret (const run $ verbose $ mirrors_arg $ pm_txns $ inject_arg $ out_arg))

(* ------------------------------------------------------------------ *)
(* sharding                                                            *)

let sharding_cmd =
  let shards_arg =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Number of shards (independent primaries).")
  in
  let mirrors_arg =
    Arg.(value & opt int 1 & info [ "m"; "mirrors" ] ~doc:"Mirrors per shard.")
  in
  let cross_arg =
    Arg.(value & opt int 5 & info [ "cross" ] ~doc:"Cross-shard transfers per 100 singles.")
  in
  let clients_arg =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Clients per shard.")
  in
  let total_arg =
    Arg.(value & opt int 4_000 & info [ "n"; "txns" ] ~doc:"Measured single-shard commits.")
  in
  let scale_arg =
    Arg.(
      value
      & opt int 10
      & info [ "scale" ] ~doc:"TPC-style scale of the whole bank, split across shards.")
  in
  let failover_arg =
    Arg.(
      value
      & flag
      & info [ "failover" ]
          ~doc:
            "Instead of the scaling cell, crash one shard's primary under mixed traffic, \
             rebuild it on the spare and check the zero-committed-data-loss oracle.")
  in
  let run verbose shards mirrors cross clients total scale failover =
    setup_logs verbose;
    if shards < 1 || mirrors < 1 || clients < 1 || total < 1 || scale < 1 then
      `Error (false, "shards, mirrors, clients, txns and scale must be positive")
    else if cross < 0 then `Error (false, "cross must be non-negative")
    else begin
      let module S = Harness.Sharding in
      if failover then begin
        let params = Harness.Experiments.sharding_params ~scale ~shards () in
        let f = S.failover ~shards:(max 2 shards) ~mirrors ~clients ~params () in
        Printf.printf
          "before crash: %d committed (%d cross); after heal: %d committed (%d cross)\n"
          f.S.f_before.Harness.Multi_client.ss_committed
          f.S.f_before.Harness.Multi_client.ss_cross_committed
          f.S.f_after.Harness.Multi_client.ss_committed
          f.S.f_after.Harness.Multi_client.ss_cross_committed;
        Printf.printf "data preserved: %b  consistent: %b  monitor alerts: %d\n"
          f.S.f_data_preserved f.S.f_consistent f.S.f_alerts;
        if f.S.f_data_preserved && f.S.f_consistent && f.S.f_alerts = 0 then begin
          print_endline "failover oracle green: committed data survived the primary crash";
          `Ok ()
        end
        else `Error (false, "failover oracle violated")
      end
      else begin
        let c =
          Harness.Experiments.sharding_cell ~mirrors ~clients ~scale ~total ~shards
            ~cross_per_100:cross ()
        in
        Harness.Table.print ~title:"Sharded debit-credit"
          ~header:
            [ "shards"; "cross/100"; "singles"; "cross"; "switches"; "elapsed (us)"; "tps";
              "pkts/txn" ]
          [
            [
              string_of_int c.S.c_shards;
              string_of_int c.S.c_cross_per_100;
              string_of_int c.S.c_committed;
              string_of_int c.S.c_cross;
              string_of_int c.S.c_switches;
              Printf.sprintf "%.0f" c.S.c_elapsed_us;
              Printf.sprintf "%.0f" c.S.c_tps;
              Printf.sprintf "%.1f" c.S.c_pkts_per_txn;
            ];
          ];
        Printf.printf "%d shard(s), %d mirror(s) each: %.0f aggregate tps on the frontier clock\n"
          c.S.c_shards mirrors c.S.c_tps;
        `Ok ()
      end
    end
  in
  let doc =
    "Partition the bank across multiple primaries and measure aggregate throughput, or crash a \
     shard's primary under traffic and check failover (--failover)."
  in
  Cmd.v (Cmd.info "sharding" ~doc)
    Term.(
      ret
        (const run $ verbose $ shards_arg $ mirrors_arg $ cross_arg $ clients_arg $ total_arg
       $ scale_arg $ failover_arg))

(* ------------------------------------------------------------------ *)

let main =
  let doc = "PERSEAS: lightweight transactions on networks of workstations (ICDCS 1998)" in
  let info = Cmd.info "perseas_cli" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      experiments_cmd;
      workload_cmd;
      trace_cmd;
      explain_cmd;
      stats_cmd;
      availability_cmd;
      crash_demo_cmd;
      crash_sweep_cmd;
      checkpoint_cmd;
      churn_cmd;
      sharding_cmd;
      top_cmd;
      timeline_cmd;
      postmortem_cmd;
    ]

let () = exit (Cmd.eval main)
