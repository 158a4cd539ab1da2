(* The benchmark's command line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     main.exe workload NAME [--seed N] [--seconds S] [--traced] [--out FILE] [--perfetto FILE]
     main.exe workload-set --repeat N --out DIR [--seconds S]
     main.exe agree DIR_A DIR_B
     main.exe micro [--out FILE]

   A workload run prints one [name value unit] line per metric, then the
   result object as the last line of standard output, and exits 1 if
   any correctness check failed. *)

open Perfbench

let default_seconds = 10.

let usage () =
  prerr_endline
    "usage: main.exe workload NAME [--seed N] [--seconds S] [--traced] [--out FILE] [--perfetto FILE]\n\
    \       main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       main.exe workload-set --repeat N --out DIR [--seconds S]\n\
    \       main.exe agree DIR_A DIR_B\n\
    \       main.exe micro [--out FILE]";
  exit 2

(* Positional arguments, and [--flag value] pairs ([--traced] takes none). *)
let parse args =
  let rec go pos flags = function
    | [] -> (List.rev pos, flags)
    | "--traced" :: rest -> go pos (("--trace", "1") :: flags) rest
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag -> go pos ((flag, value) :: flags) rest
    | flag :: _ when String.starts_with ~prefix:"--" flag -> usage ()
    | p :: rest -> go (p :: pos) flags rest
  in
  go [] [] args

let flag flags name = List.assoc_opt name flags

let number flags name ~default of_string =
  match flag flags name with
  | None -> default
  | Some v -> ( match of_string v with Some x -> x | None -> usage ())

let run_workload name flags =
  let w =
    match Scenario.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" name (String.concat ", " Scenario.names);
        exit 2
  in
  let seed = number flags "--seed" ~default:w.Scenario.seed int_of_string_opt in
  let seconds = number flags "--seconds" ~default:default_seconds float_of_string_opt in
  let outcome =
    match flag flags "--trace" with
    | None | Some "0" -> Runner.untraced w ~seed ~seconds
    | Some "1" -> Runner.traced ?perfetto:(flag flags "--perfetto") ~micro_quota:0.1 w ~seed ~seconds
    | Some _ -> usage ()
  in
  Report.print ?out:(flag flags "--out") outcome;
  if not (Report.correct outcome) then exit 1

(* Each run in its own process, so each peak resident set is its own. *)
let workload_set flags =
  let repeat = number flags "--repeat" ~default:0 int_of_string_opt in
  let dir = match flag flags "--out" with Some d -> d | None -> usage () in
  if repeat < 1 then usage ();
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let seconds = match flag flags "--seconds" with Some s -> [ "--seconds"; s ] | None -> [] in
  let failures =
    List.concat_map
      (fun name ->
        List.init repeat (fun i ->
            let out = Filename.concat dir (Printf.sprintf "%s-%d.json" name (i + 1)) in
            let argv = Array.of_list ([ Sys.executable_name; "workload"; name; "--out"; out ] @ seconds) in
            let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
            match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> [] | _ -> [ out ]))
      Scenario.names
    |> List.concat
  in
  List.iter (Printf.eprintf "run failed: %s\n") failures;
  if failures <> [] then exit 1

let () =
  match parse (List.tl (Array.to_list Sys.argv)) with
  | [], flags when flag flags "--workload" <> None -> run_workload (Option.get (flag flags "--workload")) flags
  | [ "workload"; name ], flags -> run_workload name flags
  | [ "workload-set" ], flags -> workload_set flags
  | [ "agree"; a; b ], _ -> if not (Report.agree ~benchmark:"BENCHMARK.json" a b) then exit 1
  | [ "micro" ], flags ->
      let metrics = Micro.run ~quota:0.5 in
      Report.print ?out:(flag flags "--out")
        { Runner.metrics; checks = []; attempted = List.length metrics; failed = 0 }
  | _ -> usage ()
