(* Wall-clock instrumentation applied from outside the engine: a
   monotonic clock, per-call accumulators, and an engine functor that
   times each call it forwards.  The engine itself is never edited. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* On a shared host the memory system slows down and speeds up with the
   other tenants' load, for minutes at a time.  A probe of random byte
   reads over a 32 MiB table, the cache-missing access pattern of the
   simulator's copies and lookups, tracks those swings: each timed
   stretch of work is preceded by one and scaled to a host on which the
   probe takes [reference_probe_ms]. *)
let reference_probe_ms = 3.5

(* Outside the OCaml heap, so the table neither slows nor paces the GC. *)
let probe_table =
  lazy
    (let t = Bigarray.(Array1.create char c_layout (32 * 1024 * 1024)) in
     Bigarray.Array1.fill t '\001';
     t)

let probe_ms () =
  let table = Lazy.force probe_table in
  let mask = Bigarray.Array1.dim table - 1 in
  let t0 = now_ns () in
  let x = ref 12345 and sum = ref 0 in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    sum := !sum + Char.code (Bigarray.Array1.unsafe_get table (!x land mask))
  done;
  ignore (Sys.opaque_identity !sum);
  float_of_int (now_ns () - t0) *. 1e-6

(* [f ()] and its wall seconds on the reference host, as seen by
   [probe] (by default, a fresh one). *)
let scaled ?probe f =
  let probe = match probe with Some p -> p | None -> probe_ms () in
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0 *. reference_probe_ms /. probe)

(* Recovery copies whole database images, so its pace follows memory
   bandwidth rather than latency.  It is scaled by a second probe, one
   copy of the probe table, which takes [reference_copy_ms] on the
   reference host.  On dc-group-c8 this tracks the host's slow spells
   better than the read probe (see perfbench/README.md). *)
let reference_copy_ms = 4.5

let copy_table =
  lazy
    (let t = Bigarray.(Array1.create char c_layout (Array1.dim (Lazy.force probe_table))) in
     Bigarray.Array1.fill t '\002';
     t)

let copy_probe_ms () =
  let src = Lazy.force probe_table and dst = Lazy.force copy_table in
  let t0 = now_ns () in
  Bigarray.Array1.blit src dst;
  float_of_int (now_ns () - t0) *. 1e-6

(* [f ()] and its wall seconds on the reference host, scaled by the mean
   of a copy probe before and one after. *)
let scaled_by_copy f =
  let before = copy_probe_ms () in
  let t0 = now_ns () in
  let r = f () in
  let wall_s = seconds_since t0 in
  (r, wall_s *. reference_copy_ms *. 2. /. (before +. copy_probe_ms ()))

type acc = { mutable calls : int; mutable ns : int; mutable bytes : int }

let acc () = { calls = 0; ns = 0; bytes = 0 }
let begins = acc ()
let set_ranges = acc ()
let writes = acc ()
let commits = acc ()

let time a ?(bytes = 0) f =
  let t0 = now_ns () in
  let stop () =
    a.ns <- a.ns + (now_ns () - t0);
    a.calls <- a.calls + 1;
    a.bytes <- a.bytes + bytes
  in
  match f () with
  | r ->
      stop ();
      r
  | exception e ->
      stop ();
      raise e

(* The engine view the workloads run against, pinned to PERSEAS' own
   types so [Harness.Multi_client] can drive the same transactions. *)
module type ENGINE =
  Perseas.Txn_intf.S
    with type t = Perseas.t
     and type segment = Perseas.segment
     and type txn = Perseas.txn

module Make (E : ENGINE) : ENGINE = struct
  include E

  let begin_transaction t = time begins (fun () -> E.begin_transaction t)
  let set_range txn seg ~off ~len = time set_ranges (fun () -> E.set_range txn seg ~off ~len)
  let write t seg ~off b = time writes ~bytes:(Bytes.length b) (fun () -> E.write t seg ~off b)
  let commit txn = time commits (fun () -> E.commit txn)
end
