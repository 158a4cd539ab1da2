open Sim

module type INSTANCE = sig
  module E : Perseas.Txn_intf.S

  val engine : E.t
  val clock : Clock.t
  val label : string
  val finish : unit -> unit
end

type instance = (module INSTANCE)

let label (module I : INSTANCE) = I.label
let clock_of (module I : INSTANCE) = I.clock

type perseas_bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  server : Netram.Server.t;
  perseas : Perseas.t;
}

let mb n = n * 1024 * 1024

let perseas_bed ?config ?params ?(dram_mb = 64) () =
  let clock = Clock.create () in
  let cluster =
    Cluster.create ?params ~clock
      [
        Cluster.spec ~dram_size:(mb dram_mb) ~power_supply:0 "primary";
        Cluster.spec ~dram_size:(mb dram_mb) ~power_supply:1 "mirror";
        Cluster.spec ~dram_size:(mb dram_mb) ~power_supply:2 "spare";
      ]
  in
  let server = Netram.Server.create (Cluster.node cluster 1) in
  let client = Netram.Client.create ~cluster ~local:0 ~server in
  { clock; cluster; server; perseas = Perseas.init ?config client }

type replicated_bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  servers : Netram.Server.t list;
  perseas : Perseas.t;
}

let replicated_bed ?config ?params ?(dram_mb = 64) ~mirrors () =
  if mirrors < 1 then invalid_arg "Testbed.replicated_bed: at least one mirror";
  let clock = Clock.create () in
  let specs =
    Cluster.spec ~dram_size:(mb dram_mb) ~power_supply:0 "primary"
    :: List.init mirrors (fun i ->
           Cluster.spec ~dram_size:(mb dram_mb) ~power_supply:(i + 1)
             (Printf.sprintf "mirror%d" i))
  in
  let cluster = Cluster.create ?params ~clock specs in
  let servers = List.init mirrors (fun i -> Netram.Server.create (Cluster.node cluster (i + 1))) in
  let clients = List.map (fun server -> Netram.Client.create ~cluster ~local:0 ~server) servers in
  { clock; cluster; servers; perseas = Perseas.init_replicated ?config clients }

type checkpoint_bed = {
  clock : Clock.t;
  cluster : Cluster.t;
  server : Netram.Server.t;
  ckpt_server : Netram.Server.t;
  perseas : Perseas.t;
}

let checkpoint_bed () =
  let clock = Clock.create () in
  let specs =
    List.mapi
      (fun i n -> Cluster.spec ~dram_size:(mb 64) ~power_supply:i n)
      [ "primary"; "mirror"; "ckpt"; "spare" ]
  in
  let cluster = Cluster.create ~clock specs in
  let server = Netram.Server.create (Cluster.node cluster 1) in
  let client = Netram.Client.create ~cluster ~local:0 ~server in
  {
    clock;
    cluster;
    server;
    ckpt_server = Netram.Server.create (Cluster.node cluster 2);
    perseas = Perseas.init client;
  }

let replicated_instance ?config ?dram_mb ~mirrors () : instance =
  let bed = replicated_bed ?config ?dram_mb ~mirrors () in
  (module struct
    module E = Perseas.Engine

    let engine = bed.perseas
    let clock = bed.clock
    let label = Printf.sprintf "PERSEAS-%dm" mirrors
    let finish () = ()
  end)

let perseas_instance ?config ?dram_mb () : instance =
  let bed = perseas_bed ?config ?dram_mb () in
  (module struct
    module E = Perseas.Engine

    let engine = bed.perseas
    let clock = bed.clock
    let label = "PERSEAS"
    let finish () = ()
  end)

let single_node ~clock ~dram_mb name =
  let cluster = Cluster.create ~clock [ Cluster.spec ~dram_size:(mb dram_mb) name ] in
  Cluster.node cluster 0

let rvm_instance ?config ?(rio = false) ?(dram_mb = 64) ?(device_mb = 64) () : instance =
  let clock = Clock.create () in
  let node = single_node ~clock ~dram_mb "rvm-host" in
  let backend =
    if rio then Disk.Device.Rio { Disk.Device.default_rio with ups = true }
    else Disk.Device.Magnetic Disk.Device.default_geometry
  in
  let device = Disk.Device.create ~clock ~backend ~capacity:(mb device_mb) in
  let engine = Baselines.Rvm.create ?config ~node ~device () in
  (module struct
    module E = Baselines.Rvm.Engine

    let engine = engine
    let clock = clock
    let label = Baselines.Rvm.name_for device
    let finish () = Baselines.Rvm.flush engine
  end)

let vista_instance ?config ?(dram_mb = 64) ?(device_mb = 64) () : instance =
  let clock = Clock.create () in
  let node = single_node ~clock ~dram_mb "vista-host" in
  let device =
    Disk.Device.create ~clock
      ~backend:(Disk.Device.Rio { Disk.Device.default_rio with ups = true })
      ~capacity:(mb device_mb)
  in
  let engine = Baselines.Vista.create ?config ~node ~device () in
  (module struct
    module E = Baselines.Vista.Engine

    let engine = engine
    let clock = clock
    let label = "Vista"
    let finish () = ()
  end)

let remote_wal_instance ?config ?(dram_mb = 64) ?(device_mb = 64) () : instance =
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
  let engine = Baselines.Remote_wal.create ?config ~client ~device () in
  (module struct
    module E = Baselines.Remote_wal.Engine

    let engine = engine
    let clock = clock
    let label = "RemoteWAL"
    let finish () = ()
  end)

let all_instances ?dram_mb ?device_mb () =
  [
    perseas_instance ?dram_mb ();
    rvm_instance ?dram_mb ?device_mb ();
    rvm_instance ~rio:true ?dram_mb ?device_mb ();
    vista_instance ?dram_mb ?device_mb ();
    remote_wal_instance ?dram_mb ?device_mb ();
  ]
