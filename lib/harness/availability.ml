open Sim

type medium = Disk | Rio_ups | Memory

type replica = { on_node : int; medium : medium }

type deployment = {
  label : string;
  node_supplies : int list;
  replicas : replica list;
  spare_pool : bool;
}

let rvm_single_node =
  {
    label = "RVM (1 node, disk)";
    node_supplies = [ 0 ];
    replicas = [ { on_node = 0; medium = Disk } ];
    spare_pool = false;
  }

let rio_ups_single_node =
  {
    label = "Rio+UPS (1 node)";
    node_supplies = [ 0 ];
    replicas = [ { on_node = 0; medium = Rio_ups } ];
    spare_pool = false;
  }

let perseas_same_supply =
  {
    label = "PERSEAS (2 nodes, same supply)";
    node_supplies = [ 0; 0 ];
    replicas = [ { on_node = 0; medium = Memory }; { on_node = 1; medium = Memory } ];
    spare_pool = true;
  }

let perseas_two_supplies =
  {
    label = "PERSEAS (2 nodes, two supplies)";
    node_supplies = [ 0; 1 ];
    replicas = [ { on_node = 0; medium = Memory }; { on_node = 1; medium = Memory } ];
    spare_pool = true;
  }

let perseas_three_way =
  {
    label = "PERSEAS (3 nodes, three supplies)";
    node_supplies = [ 0; 1; 2 ];
    replicas =
      [
        { on_node = 0; medium = Memory };
        { on_node = 1; medium = Memory };
        { on_node = 2; medium = Memory };
      ];
    spare_pool = true;
  }

let standard_deployments =
  [
    rvm_single_node;
    rio_ups_single_node;
    perseas_same_supply;
    perseas_two_supplies;
    perseas_three_way;
  ]

type params = {
  software_mtbf : Time.t;
  hardware_mtbf : Time.t;
  outage_mtbf : Time.t;
  software_repair : Time.t;
  hardware_repair : Time.t;
  outage_repair : Time.t;
  ups_malfunction : float;
  remirror_delay : Time.t;
  horizon : Time.t;
}

let days x = Time.s (x *. 86_400.)
let hours x = Time.s (x *. 3_600.)

let default_params =
  {
    software_mtbf = days 5.;
    hardware_mtbf = days 120.;
    outage_mtbf = days 60.;
    software_repair = Time.s 300.;
    hardware_repair = days 2.;
    outage_repair = hours 1.;
    ups_malfunction = 0.02;
    remirror_delay = Time.s 600.;
    horizon = days 3650.;
  }

type result = {
  label : string;
  trials : int;
  availability : float;
  loss_events_per_decade : float;
  trials_with_loss : float;
}

type failure_kind = Sw | Hw | Outage

(* One trial: walk the failure/repair event sequence and integrate the
   time during which the data was reachable; count the instants at
   which every copy was invalid at once (loss, followed by an operator
   restore from archives so the trial can continue). *)
let trial params rng deployment =
  let n = List.length deployment.node_supplies in
  let supplies = Array.of_list deployment.node_supplies in
  let replicas = Array.of_list deployment.replicas in
  Array.iter
    (fun r ->
      if r.on_node < 0 || r.on_node >= n then invalid_arg "Availability: replica on unknown node")
    replicas;
  let clock = Clock.create () in
  let q = Events.create clock in
  let node_up = Array.make n true in
  (* valid.(i): replica i holds a usable copy of the current data. *)
  let valid = Array.make (Array.length replicas) true in
  let losses = ref 0 in
  let unavailable = ref Time.zero in
  let last_state_change = ref Time.zero in
  (* A valid memory copy is reachable even while its original host is
     down: re-mirroring moved it to a spare workstation (the paper's
     availability pitch).  Disk and Rio copies are pinned to their
     machine. *)
  let reachable () =
    Array.exists2
      (fun r v -> v && (r.medium = Memory || node_up.(r.on_node)))
      replicas valid
  in
  let was_reachable = ref true in
  let note_state () =
    let now = Clock.now clock in
    let r = reachable () in
    if !was_reachable && not r then last_state_change := now
    else if (not !was_reachable) && r then unavailable := !unavailable + (now - !last_state_change);
    was_reachable := r
  in
  let note_state_ref () = note_state () in
  let any_valid () = Array.exists Fun.id valid in
  let schedule_remirror i =
    if deployment.spare_pool then
      ignore
        (Events.schedule_after q ~delay:params.remirror_delay (fun () ->
             if (not valid.(i)) && any_valid () then begin
               valid.(i) <- true;
               note_state_ref ()
             end))
  in
  let invalidate i =
    valid.(i) <- false;
    match replicas.(i).medium with Memory -> schedule_remirror i | Disk | Rio_ups -> ()
  in
  let check_loss () =
    if not (any_valid ()) then begin
      incr losses;
      (* Operator restores from an archive: all replicas on live nodes
         become valid again (stale data — the loss already counted). *)
      Array.iteri (fun i r -> if node_up.(r.on_node) then valid.(i) <- true) replicas
    end
  in
  (* Draws far beyond the horizon never fire; cap them so huge MTBFs
     cannot overflow the integer time representation. *)
  let beyond_horizon = (2. *. Time.to_s params.horizon) +. 1. in
  let exp_delay mean =
    Time.s (Float.min (Rng.exponential rng ~mean:(Time.to_s mean)) beyond_horizon)
  in
  let crash_node node kind =
    if node_up.(node) then begin
      node_up.(node) <- false;
      Array.iteri
        (fun i r ->
          if r.on_node = node then
            match (r.medium, kind) with
            | Memory, _ -> invalidate i
            | Disk, _ -> () (* platters keep the bits *)
            | Rio_ups, Sw -> () (* Rio's whole point *)
            | Rio_ups, Hw -> () (* the cache is disk-backed; recoverable after repair *)
            | Rio_ups, Outage ->
                if Rng.float rng 1.0 < params.ups_malfunction then invalidate i)
        replicas;
      check_loss ()
    end
  in
  let repair_node node =
    node_up.(node) <- true;
    (* Memory and Rio copies resync from any valid copy on repair; if
       none exists anywhere, the operator restores from the archive —
       the loss itself was already counted when it happened. *)
    Array.iteri
      (fun i r ->
        if r.on_node = node && not valid.(i) then
          match r.medium with Memory | Rio_ups -> valid.(i) <- true | Disk -> ())
      replicas
  in
  let rec schedule_node_failures node =
    let sw = exp_delay params.software_mtbf and hw = exp_delay params.hardware_mtbf in
    let kind, delay = if sw < hw then (Sw, sw) else (Hw, hw) in
    let repair = match kind with Sw -> params.software_repair | Hw -> params.hardware_repair | Outage -> assert false in
    ignore
      (Events.schedule_after q ~delay (fun () ->
           crash_node node kind;
           note_state ();
           ignore
             (Events.schedule_after q ~delay:repair (fun () ->
                  repair_node node;
                  note_state ();
                  schedule_node_failures node))))
  in
  let supply_ids = List.sort_uniq compare (Array.to_list supplies) in
  let rec schedule_outages supply =
    ignore
      (Events.schedule_after q ~delay:(exp_delay params.outage_mtbf) (fun () ->
           Array.iteri (fun node s -> if s = supply then crash_node node Outage) supplies;
           note_state ();
           ignore
             (Events.schedule_after q ~delay:params.outage_repair (fun () ->
                  Array.iteri (fun node s -> if s = supply then repair_node node) supplies;
                  note_state ();
                  schedule_outages supply))))
  in
  for node = 0 to n - 1 do
    schedule_node_failures node
  done;
  List.iter schedule_outages supply_ids;
  Events.run_until q params.horizon;
  note_state ();
  if not !was_reachable then unavailable := !unavailable + (Clock.now clock - !last_state_change);
  let avail = 1. -. (Time.to_s !unavailable /. Time.to_s params.horizon) in
  (avail, !losses)

let simulate ?(params = default_params) ?(seed = 42) ~trials deployment =
  if trials <= 0 then invalid_arg "Availability.simulate: trials must be positive";
  let rng = Rng.create seed in
  let sum_avail = ref 0. and sum_losses = ref 0 and lossy = ref 0 in
  for _ = 1 to trials do
    let avail, losses = trial params (Rng.split rng) deployment in
    sum_avail := !sum_avail +. avail;
    sum_losses := !sum_losses + losses;
    if losses > 0 then incr lossy
  done;
  let per_decade =
    float_of_int !sum_losses /. float_of_int trials
    *. (Time.to_s (days 3650.) /. Time.to_s params.horizon)
  in
  {
    label = deployment.label;
    trials;
    availability = !sum_avail /. float_of_int trials;
    loss_events_per_decade = per_decade;
    trials_with_loss = float_of_int !lossy /. float_of_int trials;
  }
