open Sim
module Node = Cluster.Node

(* Everything a plan needs is resolved once, here: the NIC, the hop
   count and both DRAM images.  A node's image is never replaced (a
   crash wipes it in place), so the handles stay valid for the client's
   life; reachability is still checked on every plan, and before every
   run on a {!dest}. *)
type t = {
  cluster : Cluster.t;
  local : int;
  server : Server.t;
  nic : Sci.Nic.t;
  hops : int;
  local_dram : Mem.Image.t;
  remote_dram : Mem.Image.t;
}

exception Unreachable of string

let unreachable t op reason =
  raise
    (Unreachable
       (Printf.sprintf "Client.%s: memory server on node %d %s" op
          (Node.id (Server.node t.server)) reason))

let ensure_reachable t op =
  if not (Server.is_alive t.server) then unreachable t op "is unreachable (node down or rebooted)"

let create ~cluster ~local ~server =
  let server_id = Node.id (Server.node server) in
  if server_id = local then invalid_arg "Client.create: client and server share a node";
  {
    cluster;
    local;
    server;
    nic = Cluster.nic cluster;
    hops = Cluster.hops cluster ~src:local ~dst:server_id;
    local_dram = Node.dram (Cluster.node cluster local);
    remote_dram = Server.dram server;
  }

let cluster t = t.cluster
let local_node t = Cluster.node t.cluster t.local
let server t = t.server
let hops t = t.hops

let rpc_time t =
  let p = Sci.Nic.params t.nic in
  let hop_extra = (t.hops - 1 + (Cluster.size t.cluster - t.hops - 1)) * p.t_hop in
  (* Request out, reply back around the ring, plus server handling. *)
  (2 * (p.t_base + p.t_pkt16)) + hop_extra + Time.us 2.0

(* Control round trips don't go through the packet-level NIC plans, so
   they are traced here: one instant event per rpc, tagged with the
   operation, distinguishing control traffic from the bulk data
   movement the plans tag themselves. *)
let charge_rpc t op =
  let clock = Cluster.clock t.cluster in
  Clock.advance clock (rpc_time t);
  Sci.Nic.note_rpc t.nic;
  let sink = Sci.Nic.sink t.nic in
  if Trace.Sink.enabled sink then
    Trace.Sink.instant sink ~cat:"netram" ~name:"rpc" ~at:(Clock.now clock)
      ~args:
        ([ ("tag", "rpc"); ("op", op); ("server", string_of_int (Node.id (Server.node t.server))) ]
        @ List.filter (fun (k, _) -> k <> "tag" && k <> "op") (Sci.Nic.ctx t.nic))

(* One control round trip that answers "is the server there?" instead
   of raising: the cost is charged whether the reply comes back or the
   probe times out, so a failure detector pays for its vigilance. *)
let ping t =
  charge_rpc t "ping";
  Server.is_alive t.server

let malloc t ~name ~size =
  ensure_reachable t "malloc";
  charge_rpc t "malloc";
  Server.export t.server ~name ~size

let free t handle =
  ensure_reachable t "free";
  charge_rpc t "free";
  Server.release t.server handle

let connect t ~name =
  ensure_reachable t "connect";
  charge_rpc t "connect";
  Server.lookup t.server ~name

let check_handle t (h : Remote_segment.t) op =
  ensure_reachable t op;
  if h.owner <> Node.id (Server.node t.server) then
    failwith (Printf.sprintf "Client.%s: handle %s belongs to another server" op h.name);
  if h.owner_generation <> Node.crashes_since_start (Server.node t.server) then
    unreachable t op (Printf.sprintf "rebooted; handle %s is stale" h.name);
  if not h.exported then
    failwith (Printf.sprintf "Client.%s: handle %s is no longer exported" op h.name)

let check_range (h : Remote_segment.t) ~seg_off ~len op =
  if seg_off < 0 || len < 0 || seg_off + len > Remote_segment.len h then
    invalid_arg
      (Printf.sprintf "Client.%s: range [%d,+%d) outside segment %s of %d bytes" op seg_off len
         h.name (Remote_segment.len h))

let do_plan_write ?window t (h : Remote_segment.t) ~seg_off ~src_off ~len =
  check_handle t h "write";
  check_range h ~seg_off ~len "write";
  Sci.Nic.plan_write t.nic ~hops:t.hops ~tag:"bulk" ?window ~src:t.local_dram ~src_off
    ~dst:t.remote_dram ~dst_off:(Remote_segment.base h + seg_off) ~len ()

let plan_write t ?(widen = true) h ~seg_off ~src_off ~len =
  if widen then do_plan_write ~window:h.Remote_segment.seg t h ~seg_off ~src_off ~len
  else do_plan_write t h ~seg_off ~src_off ~len

let dest t handles =
  Array.iter (fun h -> check_handle t h "dest") handles;
  Sci.Nic.dest t.nic ~image:t.remote_dram ~bases:(Array.map Remote_segment.base handles)
    ~lens:(Array.map Remote_segment.len handles) ~hops:t.hops

let reachable t = Server.is_alive t.server
let check t = ensure_reachable t "write"

let write t h ~seg_off ~src_off ~len = Sci.Nic.run t.nic (plan_write t h ~seg_off ~src_off ~len)

let read_planner t (h : Remote_segment.t) ~dst =
  check_handle t h "read";
  fun ~seg_off ~dst_off ~len ->
    check_range h ~seg_off ~len "read";
    Sci.Nic.plan_read t.nic ~hops:t.hops ~tag:"bulk" ~src:t.remote_dram
      ~src_off:(Remote_segment.base h + seg_off) ~dst ~dst_off ~len ()

let read_to_image t h ~seg_off ~dst ~dst_off ~len =
  Sci.Nic.run t.nic (read_planner t h ~dst ~seg_off ~dst_off ~len)

let read t h ~seg_off ~dst_off ~len = read_to_image t h ~seg_off ~dst:t.local_dram ~dst_off ~len

let write_u64 t (h : Remote_segment.t) ~seg_off v =
  check_handle t h "write_u64";
  check_range h ~seg_off ~len:8 "write_u64";
  Sci.Nic.write_u64 t.nic ~hops:t.hops ~tag:"bulk" ~dst:t.remote_dram
    ~dst_off:(Remote_segment.base h + seg_off) v

let read_u64 t (h : Remote_segment.t) ~seg_off =
  check_handle t h "read_u64";
  check_range h ~seg_off ~len:8 "read_u64";
  Sci.Nic.read_u64 t.nic ~hops:t.hops ~tag:"bulk" ~src:t.remote_dram
    ~src_off:(Remote_segment.base h + seg_off) ()
