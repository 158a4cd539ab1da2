(* Wall-clock microbenchmarks, one per public layer function the
   workloads lean on, plus a calibration loop that measures the speed of
   the machine rather than of the simulator.  Each reports nanoseconds
   per call, estimated by Bechamel's ordinary least squares. *)

open Bechamel

let kib = 1024

let fixtures () =
  let open Sim in
  let clock = Clock.create () in
  let events = Events.create clock in
  let src = Mem.Image.create ~size:(64 * kib) and dst = Mem.Image.create ~size:(64 * kib) in
  let nic = Sci.Nic.create clock in
  let convoy =
    List.init 8 (fun i ->
        {
          Sci.Nic.ck_tag = "data";
          ck_window = None;
          ck_src = src;
          ck_src_off = i * 128;
          ck_dst = dst;
          ck_dst_off = i * 128;
          ck_len = 64;
        })
  in
  let cluster =
    Cluster.create ~clock:(Clock.create ())
      [ Cluster.spec ~dram_size:(kib * kib) "local"; Cluster.spec ~dram_size:(kib * kib) ~power_supply:1 "remote" ]
  in
  let client =
    Netram.Client.create ~cluster ~local:0 ~server:(Netram.Server.create (Cluster.node cluster 1))
  in
  let remote = Netram.Client.malloc client ~name:"micro" ~size:(64 * kib) in
  (* A write-set of 32 disjoint lines; the added range lands between two. *)
  let iset = List.fold_left (fun s i -> Perseas.Iset.add s ~off:(i * 128) ~len:64) Perseas.Iset.empty (List.init 32 Fun.id) in
  let bed = Harness.Testbed.perseas_bed ~dram_mb:4 () in
  let module W = Workloads.Debit_credit.Make (Perseas.Engine) in
  let dc = W.setup bed.Harness.Testbed.perseas ~params:Workloads.Debit_credit.small_params in
  let rng = Rng.create 7 in
  let tail = Trace.Tail.create () in
  let spans =
    List.init 8 (fun i ->
        { Trace.Span.name = "set_range"; cat = "txn"; start = i * 1000; stop = (i * 1000) + 500; args = [] })
  in
  [
    ( "sim.events_ns",
      fun () ->
        ignore (Events.schedule_after events ~delay:0 ignore);
        Events.run_due events );
    ("mem.blit_4k_ns", fun () -> Mem.Image.blit ~src ~src_off:0 ~dst ~dst_off:0 ~len:(4 * kib));
    ("sci.write_64_ns", fun () -> Sci.Nic.write nic ~src ~src_off:0 ~dst ~dst_off:0 ~len:64 ());
    ("sci.write_4k_ns", fun () -> Sci.Nic.write nic ~src ~src_off:0 ~dst ~dst_off:0 ~len:(4 * kib) ());
    ("sci.convoy_8x64_ns", fun () -> Sci.Nic.run nic (Sci.Nic.plan_convoy nic convoy));
    ("netram.write_128_ns", fun () -> Netram.Client.write client remote ~seg_off:0 ~src_off:0 ~len:128);
    ("netram.read_4k_ns", fun () -> Netram.Client.read client remote ~seg_off:0 ~dst_off:0 ~len:(4 * kib));
    ("core.iset_add_ns", fun () -> ignore (Sys.opaque_identity (Perseas.Iset.add iset ~off:2112 ~len:16)));
    ("core.dc_txn_ns", fun () -> W.transaction dc rng);
    ("trace.tail_observe_ns", fun () -> Trace.Tail.observe tail ~latency_us:40. ~spans ~events:[]);
    ( "host.calib_ns",
      fun () ->
        let x = ref 1 in
        for _ = 1 to 1000 do
          x := (!x * 1103515245) + 12345
        done;
        ignore (Sys.opaque_identity !x) );
  ]

let run ~quota =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  List.map
    (fun (name, f) ->
      let results = Analyze.all ols clock (Benchmark.all cfg [ clock ] (Test.make ~name (Staged.stage f))) in
      match Option.bind (Hashtbl.find_opt results name) Analyze.OLS.estimates with
      | Some [ ns ] -> (name, ns)
      | _ -> (name, Float.nan))
    (fixtures ())
