(** Simulated multi-client load over one PERSEAS instance.

    The simulation is single-threaded deterministic virtual time, so
    "concurrent clients" means interleaved transaction {e phases}: the
    round-robin driver advances one client per turn — begin + declare
    on one turn, apply + commit on a later one — keeping up to
    [clients] disjoint transactions genuinely in flight between turns.
    That in-flight window is what group commit batches over and what
    the {!Perseas.Conflict} machinery polices; losers retry with the
    same drawn work a round later (wound-wait: the younger, cheaper
    party re-runs). *)

type stats = {
  committed : int;  (** Transactions that reached commit. *)
  conflicts : int;  (** {!Perseas.Conflict} losses (each one retried). *)
  attempts : int;  (** Begins, i.e. [committed] + retried losses. *)
}

val client_name : int -> string
(** ["client-<i>"] — the name the driver begins transactions under. *)

type 'a spec = {
  prepare : int -> 'a;
      (** Draw one transaction's work for client [i] (consume the rng
          here, once — retries reuse the draw). *)
  declare : Perseas.txn -> 'a -> unit;  (** The [set_range] phase. *)
  apply : 'a -> unit;  (** The in-place writes; runs just before commit. *)
}

val run : Perseas.t -> clients:int -> total:int -> 'a spec -> stats
(** Drive [clients] round-robin until [total] transactions commit,
    then abort any parked transactions and {!Perseas.flush} the staged
    tail so the database quiesces committed.  Conflicted work is
    retried (same draw) on the loser's next turn. *)

(** {1 Sharded driver}

    The same phase-interleaved population, replicated per shard of a
    {!Perseas.Shard.t} router.  Each shard's clients run against that
    shard's primary on that shard's clock, so turns on different
    shards overlap in virtual time — the sharding speedup the router
    exists to deliver.  Cross-shard transactions are injected through
    {!Perseas.Shard.submit_cross} and commit during the router's
    single-master phases. *)

type sharded_stats = {
  ss_committed : int;  (** Single-shard commits, summed over shards. *)
  ss_cross_committed : int;  (** Cross-shard transactions drained. *)
  ss_conflicts : int;  (** Single-shard conflict losses (retried). *)
  ss_attempts : int;  (** Single-shard begins. *)
  ss_switches : int;  (** Single-master phases entered during the run. *)
}

type 'a shard_spec = {
  sh_prepare : shard:int -> client:int -> 'a;
      (** Draw one transaction's work for [client] of [shard]. *)
  sh_declare : shard:int -> Perseas.txn -> 'a -> unit;
  sh_apply : shard:int -> 'a -> unit;
}

val run_sharded :
  Perseas.Shard.t ->
  clients:int ->
  total:int ->
  ?cross_every:int ->
  ?cross:(unit -> (int * 'a) list) ->
  'a shard_spec ->
  sharded_stats
(** Drive [clients] clients per shard, one turn on every shard per
    round, until [total] single-shard transactions commit across the
    router; the router {!Perseas.Shard.tick}s once per round so due
    phase switches land at turn boundaries.  Every [cross_every]
    single-shard commits (0 = never), [cross ()] draws one cross-shard
    transaction as [(shard, work)] pieces, enqueued via
    {!Perseas.Shard.submit_cross} with [sh_declare]s for every piece
    followed by [sh_apply]s.  On return the backlog is fully drained
    and every shard is flushed and fenced. *)
