(** The [debit-credit] benchmark: banking transactions "very similar to
    TPC-B" (paper §5).

    Schema per scale unit (a branch): 1 branch record, 10 tellers,
    100 000 accounts, each {!record_size} bytes with the balance in the
    first 8 bytes, plus a circular history of {!history_slot}-byte
    entries.  A transaction applies one random delta to an account, a
    teller and a branch balance and appends a history record — four
    small [set_range]d updates, the paper's write-dominated
    small-transaction profile. *)

val record_size : int
val history_slot : int
val accounts_per_branch : int
val tellers_per_branch : int

type skew =
  | Uniform
      (** Uniform, independent account/teller/branch picks, in the
          historical rng order — byte-identical to every pre-skew run,
          which the existing bench cells gate on. *)
  | Zipf of float
      (** Gray-style realistic mix: branches drawn Zipf([theta])-hot
          (rank 0 hottest), teller within the branch, account within
          the branch with probability {!home_account_fraction} (else
          uniform anywhere). *)

type params = { scale : int; accounts_per_branch : int; history_slots : int; skew : skew }

val default_params : params
(** TPC-B scale 1: 100 000 accounts (~10 MB), uniform selection. *)

val small_params : params
(** A reduced schema for unit tests and quick runs. *)

val home_account_fraction : float
(** Probability a Zipf-mix account lives in the drawn branch (0.85). *)

val scaled_params : ?skew:skew -> ?max_scale:int -> tps:int -> unit -> params
(** TPC's rule ties database size to rated throughput; compressed
    1000x here (one branch per 1 000 tps), floored at 10 branches =
    10⁶ accounts — the million-user mix — and capped at [max_scale]
    (default 64) to bound DRAM.  [skew] defaults to [Zipf 0.8]. *)

module Make (E : Perseas.Txn_intf.S) : sig
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
  (** Transparent so recovery tests can rebind the segments of a
      recovered engine. *)

  val setup : E.t -> params:params -> db

  type draw = {
    account : int;
    teller : int;
    branch : int;
    delta : int64;
    slot : int;
    tx_id : int;
  }
  (** One transaction's random choices, fixed up front so a multi-client
      driver can interleave several transactions' phases (and retry a
      conflicted one) without perturbing the rng stream. *)

  val draw : db -> Sim.Rng.t -> draw
  (** Consume the rng (same draw order as {!transaction}) and claim a
      history slot / tx id. *)

  val declare : db -> E.txn -> draw -> unit
  (** The four [set_range] declarations. *)

  val apply : db -> draw -> unit
  (** The balance updates and the history entry. *)

  val transaction : db -> Sim.Rng.t -> unit
  (** [draw] + begin + [declare] + [apply] + commit, as one call. *)

  val consistent : db -> bool
  (** The TPC-B consistency condition: account, teller and branch
      balance totals are equal. *)

  val checksum : db -> int64

  val rebind : db -> E.t -> db
  (** The same bank on [engine], a recovered copy of [db]'s engine: the
      four tables are looked up again by name. *)
end
