(** The [debit-credit] benchmark: banking transactions "very similar to
    TPC-B" (paper §5).

    Schema per scale unit (a branch): 1 branch record, 10 tellers,
    100 000 accounts, each 100 bytes with the balance in the first
    8 bytes, plus a circular history of 64-byte entries.  A transaction
    picks a random account/teller/branch, applies a random delta to the
    three balances and appends a history record — four small
    [set_range]d updates, the paper's write-dominated small-transaction
    profile.

    Invariant (the TPC-B consistency condition, used by the tests):
    the sums of account, teller and branch balances are always equal. *)

let record_size = 100
let history_slot = 64
let accounts_per_branch = 100_000
let tellers_per_branch = 10

(* Account selection.  [Uniform] draws the rng in the historical order
   (account, teller, branch, delta) and MUST stay byte-identical — it
   is the schedule every existing bench cell gates on.  [Zipf theta]
   is the Gray-style realistic mix ("Thousands of DebitCredit
   Transactions-Per-Second"): branches drawn Zipf-hot, the teller
   inside the branch, and the account inside the branch with
   probability [home_account_fraction] (else anywhere). *)
type skew = Uniform | Zipf of float

type params = { scale : int; accounts_per_branch : int; history_slots : int; skew : skew }

let default_params = { scale = 1; accounts_per_branch; history_slots = 8192; skew = Uniform }

(** A smaller schema for unit tests and quick runs. *)
let small_params = { scale = 1; accounts_per_branch = 1000; history_slots = 256; skew = Uniform }

let home_account_fraction = 0.85

(* TPC's scaling rule ties the database size to the rated throughput —
   a bank that really pushed this tps would have this many branches.
   The genuine TPC-B rule (one branch per tps) would demand billions
   of accounts at PERSEAS rates, so the rule is compressed 1000x: one
   branch per 1000 tps, floored at 10 branches = 10^6 accounts (the
   million-user mix ROADMAP asks for) and capped to bound DRAM. *)
let scaled_params ?(skew = Zipf 0.8) ?(max_scale = 64) ~tps () =
  let scale = min max_scale (max 10 (tps / 1_000)) in
  { scale; accounts_per_branch; history_slots = 8192; skew }

module Make (E : Perseas.Txn_intf.S) = struct
  type db = {
    engine : E.t;
    params : params;
    accounts : E.segment;
    tellers : E.segment;
    branches : E.segment;
    history : E.segment;
    n_accounts : int;
    n_tellers : int;
    n_branches : int;
    mutable hist_head : int;
    mutable tx_counter : int;
  }

  let setup engine ~params =
    let n_branches = params.scale in
    let n_tellers = tellers_per_branch * params.scale in
    let n_accounts = params.accounts_per_branch * params.scale in
    let accounts = E.malloc engine ~name:"accounts" ~size:(n_accounts * record_size) in
    let tellers = E.malloc engine ~name:"tellers" ~size:(n_tellers * record_size) in
    let branches = E.malloc engine ~name:"branches" ~size:(n_branches * record_size) in
    let history = E.malloc engine ~name:"history" ~size:(params.history_slots * history_slot) in
    (* All balances start at zero; zero-fill is the segments' initial
       state, so only the record ids need writing. *)
    let init_table seg n =
      for i = 0 to n - 1 do
        E.write engine seg ~off:((i * record_size) + 8) (Util.u32_bytes i)
      done
    in
    init_table accounts n_accounts;
    init_table tellers n_tellers;
    init_table branches n_branches;
    E.init_done engine;
    {
      engine;
      params;
      accounts;
      tellers;
      branches;
      history;
      n_accounts;
      n_tellers;
      n_branches;
      hist_head = 0;
      tx_counter = 0;
    }

  let add_balance db seg index delta =
    let off = index * record_size in
    let balance = Util.get_i64 (E.read db.engine seg ~off ~len:8) 0 in
    E.write db.engine seg ~off (Util.i64_bytes (Int64.add balance delta))

  type draw = {
    account : int;
    teller : int;
    branch : int;
    delta : int64;
    slot : int;
    tx_id : int;
  }

  let draw db rng =
    let account, teller, branch =
      match db.params.skew with
      | Uniform ->
          (* Historical draw order — byte-identical to every pre-skew
             run, which the bench gates rely on. *)
          let account = Sim.Rng.int rng db.n_accounts in
          let teller = Sim.Rng.int rng db.n_tellers in
          let branch = Sim.Rng.int rng db.n_branches in
          (account, teller, branch)
      | Zipf theta ->
          let branch = Util.zipf rng ~n:db.n_branches ~theta in
          let teller = (branch * tellers_per_branch) + Sim.Rng.int rng tellers_per_branch in
          let account =
            if Sim.Rng.float rng 1.0 < home_account_fraction then
              (branch * db.params.accounts_per_branch)
              + Sim.Rng.int rng db.params.accounts_per_branch
            else Sim.Rng.int rng db.n_accounts
          in
          (account, teller, branch)
    in
    let delta = Int64.of_int (Sim.Rng.int_in rng (-99_999) 99_999) in
    let slot = db.hist_head in
    db.hist_head <- (db.hist_head + 1) mod db.params.history_slots;
    db.tx_counter <- db.tx_counter + 1;
    { account; teller; branch; delta; slot; tx_id = db.tx_counter }

  let declare db txn d =
    E.set_range txn db.accounts ~off:(d.account * record_size) ~len:8;
    E.set_range txn db.tellers ~off:(d.teller * record_size) ~len:8;
    E.set_range txn db.branches ~off:(d.branch * record_size) ~len:8;
    E.set_range txn db.history ~off:(d.slot * history_slot) ~len:history_slot

  let apply db d =
    add_balance db db.accounts d.account d.delta;
    add_balance db db.tellers d.teller d.delta;
    add_balance db db.branches d.branch d.delta;
    let entry = Bytes.make history_slot '\000' in
    Bytes.set_int32_le entry 0 (Int32.of_int d.account);
    Bytes.set_int32_le entry 4 (Int32.of_int d.teller);
    Bytes.set_int32_le entry 8 (Int32.of_int d.branch);
    Bytes.set_int64_le entry 12 d.delta;
    Bytes.set_int64_le entry 20 (Int64.of_int d.tx_id);
    E.write db.engine db.history ~off:(d.slot * history_slot) entry

  let transaction db rng =
    let d = draw db rng in
    let txn = E.begin_transaction db.engine in
    declare db txn d;
    apply db d;
    E.commit txn

  let sum_balances db seg n =
    let total = ref 0L in
    for i = 0 to n - 1 do
      total := Int64.add !total (Util.get_i64 (E.read db.engine seg ~off:(i * record_size) ~len:8) 0)
    done;
    !total

  (** The TPC-B consistency condition. *)
  let consistent db =
    let a = sum_balances db db.accounts db.n_accounts in
    let t = sum_balances db db.tellers db.n_tellers in
    let b = sum_balances db db.branches db.n_branches in
    a = t && t = b

  let rebind db engine =
    let table name = Option.get (E.find_segment engine name) in
    {
      db with
      engine;
      accounts = table "accounts";
      tellers = table "tellers";
      branches = table "branches";
      history = table "history";
    }

  let checksum db =
    List.fold_left
      (fun acc (seg, n) -> Int64.logxor acc (Util.fnv64 (E.read db.engine seg ~off:0 ~len:n)))
      0L
      [
        (db.accounts, db.n_accounts * record_size);
        (db.tellers, db.n_tellers * record_size);
        (db.branches, db.n_branches * record_size);
        (db.history, db.params.history_slots * history_slot);
      ]
end
