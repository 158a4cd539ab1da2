open Sim

module type INSTANCE = sig
  module E : Perseas.Txn_intf.S

  val engine : E.t
  val clock : Clock.t
  val label : string
  val finish : unit -> unit
  val device : Disk.Device.t option
end

type instance = (module INSTANCE)

let label (module I : INSTANCE) = I.label
let clock_of (module I : INSTANCE) = I.clock

type bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  servers : Netram.Server.t list;
  perseas : Perseas.t;
}

let mb n = n * 1024 * 1024

let make ?config ?params ?(dram_mb = 64) ?(extras = []) ?(spare = false) ~mirrors () =
  if mirrors < 1 then invalid_arg "Testbed.make: at least one mirror";
  let clock = Clock.create () in
  let names =
    ("primary" :: List.init mirrors (Printf.sprintf "mirror%d"))
    @ extras
    @ if spare then [ "spare" ] else []
  in
  let cluster =
    Cluster.create ?params ~clock
      (List.mapi
         (fun i name -> Cluster.spec ~dram_size:(mb dram_mb) ~power_supply:i name)
         names)
  in
  let servers = List.init mirrors (fun i -> Netram.Server.create (Cluster.node cluster (i + 1))) in
  let clients = List.map (fun server -> Netram.Client.create ~cluster ~local:0 ~server) servers in
  { clock; cluster; servers; perseas = Perseas.init_replicated ?config clients }

let instance ?label (bed : bed) : instance =
  (module struct
    module E = Perseas.Engine

    let engine = bed.perseas
    let clock = bed.clock

    let label =
      Option.value label ~default:(Printf.sprintf "PERSEAS-%dm" (List.length bed.servers))

    let finish () = ()
    let device = None
  end)

type perseas_bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  server : Netram.Server.t;
  perseas : Perseas.t;
}

let perseas_bed ?config ?params ?dram_mb () =
  let b = make ?config ?params ?dram_mb ~spare:true ~mirrors:1 () in
  { clock = b.clock; cluster = b.cluster; server = List.hd b.servers; perseas = b.perseas }

let perseas_instance ?config ?params ?dram_mb () =
  instance ~label:"PERSEAS" (make ?config ?params ?dram_mb ~spare:true ~mirrors:1 ())

(* A single-node baseline: the engine runs on one host with [device]
   behind it. *)
let on_device (type e) (module E : Perseas.Txn_intf.S with type t = e) ~clock ~label ?(finish = ignore)
    device (engine : e) : instance =
  (module struct
    module E = E

    let engine = engine
    let clock = clock
    let label = label
    let finish = finish
    let device = Some device
  end)

let single_node ~clock ~dram_mb name =
  let cluster = Cluster.create ~clock [ Cluster.spec ~dram_size:(mb dram_mb) name ] in
  Cluster.node cluster 0

let ups_rio = Disk.Device.Rio { Disk.Device.default_rio with ups = true }

let rvm_instance ?config ?(rio = false) ?(geometry = Disk.Device.default_geometry) ?(dram_mb = 64)
    ?(device_mb = 64) () =
  let clock = Clock.create () in
  let node = single_node ~clock ~dram_mb "rvm-host" in
  let backend = if rio then ups_rio else Disk.Device.Magnetic geometry in
  let device = Disk.Device.create ~clock ~backend ~capacity:(mb device_mb) in
  let engine = Baselines.Rvm.create ?config ~node ~device () in
  on_device (module Baselines.Rvm.Engine) ~clock ~label:(Baselines.Rvm.name_for device)
    ~finish:(fun () -> Baselines.Rvm.flush engine)
    device engine

let vista_instance ?config ?(dram_mb = 64) ?(device_mb = 64) () =
  let clock = Clock.create () in
  let node = single_node ~clock ~dram_mb "vista-host" in
  let device = Disk.Device.create ~clock ~backend:ups_rio ~capacity:(mb device_mb) in
  on_device (module Baselines.Vista.Engine) ~clock ~label:"Vista" device
    (Baselines.Vista.create ?config ~node ~device ())

let remote_wal_instance ?config ?(dram_mb = 64) ?(device_mb = 64) () =
  let clock = Clock.create () in
  let cluster =
    Cluster.create ~clock
      [
        Cluster.spec ~dram_size:(mb dram_mb) ~power_supply:0 "primary";
        Cluster.spec ~dram_size:(mb dram_mb) ~power_supply:1 "log-mirror";
      ]
  in
  let server = Netram.Server.create (Cluster.node cluster 1) in
  let client = Netram.Client.create ~cluster ~local:0 ~server in
  let device =
    Disk.Device.create ~clock ~backend:(Disk.Device.Magnetic Disk.Device.default_geometry)
      ~capacity:(mb device_mb)
  in
  on_device (module Baselines.Remote_wal.Engine) ~clock ~label:"RemoteWAL" device
    (Baselines.Remote_wal.create ?config ~client ~device ())

let all_instances ?dram_mb ?device_mb () =
  [
    perseas_instance ?dram_mb ();
    rvm_instance ?dram_mb ?device_mb ();
    rvm_instance ~rio:true ?dram_mb ?device_mb ();
    vista_instance ?dram_mb ?device_mb ();
    remote_wal_instance ?dram_mb ?device_mb ();
  ]
