open Sim

(** Monte-Carlo availability and data-loss study (paper §1).

    The paper's reliability argument is qualitative: power outages are
    correlated per supply, hardware/software errors strike nodes
    independently, so two memory copies on {e different} supplies make
    data loss "unlikely".  This module quantifies that with a failure /
    repair process simulation over the {!Sim.Events} queue: nodes fail
    (software, hardware) and power supplies fail; copies of the
    database live on nodes in a given medium; a memory copy dies with
    its node and is resynced on repair if any valid copy remains; a
    disk copy survives everything but is unreachable while its node is
    down; a Rio copy follows Rio's crash matrix (plus a small UPS
    malfunction probability on outages).

    Data is {e lost} the instant no valid copy exists; the database is
    {e available} while at least one valid copy sits on a live node. *)

type medium = Disk | Rio_ups | Memory

type replica = { on_node : int; medium : medium }

type deployment = {
  label : string;
  node_supplies : int list;  (** Power supply of each node, by index. *)
  replicas : replica list;
  spare_pool : bool;
      (** Whether a lost memory copy is re-mirrored onto a spare
          workstation after [remirror_delay] (the PERSEAS deployments),
          instead of waiting for the failed host's repair. *)
}

(** Textbook deployments compared in the paper's narrative. *)
val rvm_single_node : deployment
val rio_ups_single_node : deployment
val perseas_same_supply : deployment
val perseas_two_supplies : deployment
val perseas_three_way : deployment
val standard_deployments : deployment list

type params = {
  software_mtbf : Time.t;  (** Per node. *)
  hardware_mtbf : Time.t;  (** Per node. *)
  outage_mtbf : Time.t;  (** Per power supply. *)
  software_repair : Time.t;  (** Reboot. *)
  hardware_repair : Time.t;  (** Replace parts. *)
  outage_repair : Time.t;  (** Power restored. *)
  ups_malfunction : float;  (** P(UPS fails to absorb an outage). *)
  remirror_delay : Time.t;
      (** Time to re-mirror onto a spare after losing a memory copy. *)
  horizon : Time.t;  (** Simulated duration per trial. *)
}

val default_params : params
(** Commodity-workstation figures: software MTBF 5 days, hardware MTBF
    120 days, outages every 60 days per supply, 2 % UPS malfunction,
    10-year horizon. *)

type result = {
  label : string;
  trials : int;
  availability : float;  (** Mean fraction of time the data is reachable. *)
  loss_events_per_decade : float;  (** Mean data-loss events per trial horizon. *)
  trials_with_loss : float;  (** Fraction of trials that lost data at least once. *)
}

val simulate : ?params:params -> ?seed:int -> trials:int -> deployment -> result
