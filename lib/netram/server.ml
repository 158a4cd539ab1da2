module Node = Cluster.Node

type t = {
  node : Node.t;
  dram : Mem.Image.t;
  generation : int;
  directory : (string, Remote_segment.t) Hashtbl.t;
  mutable paused : bool;
}

let create node =
  if not (Node.is_up node) then failwith "Server.create: node is down";
  {
    node;
    dram = Node.dram node;
    generation = Node.crashes_since_start node;
    directory = Hashtbl.create 16;
    paused = false;
  }

let node t = t.node
let dram t = t.dram

let is_alive t =
  (not t.paused) && Node.is_up t.node && Node.crashes_since_start t.node = t.generation

let pause t = t.paused <- true
let resume t = t.paused <- false

(* Liveness as seen by a failure detector, refreshed at sample time
   only — probing is free, so this perturbs nothing. *)
let set_telemetry t tel ~label =
  Trace.Timeseries.on_sample tel (fun _at ->
      Trace.Timeseries.set tel (Printf.sprintf "netram.%s.alive" label) (if is_alive t then 1 else 0);
      Trace.Timeseries.set tel (Printf.sprintf "netram.%s.paused" label) (if t.paused then 1 else 0))

let check_alive t op =
  if not (is_alive t) then failwith (Printf.sprintf "Server.%s: server on %s is gone" op (Node.name t.node))

let export t ~name ~size =
  check_alive t "export";
  if Hashtbl.mem t.directory name then failwith (Printf.sprintf "Server.export: name %S already exported" name);
  (* 64-byte alignment so mirrored copies packetise as whole SCI buffers. *)
  let seg =
    match Mem.Allocator.alloc (Node.allocator t.node) ~align:64 size with
    | Some seg -> seg
    | None -> failwith (Printf.sprintf "Server.export: out of remote memory (%d bytes)" size)
  in
  let handle =
    {
      Remote_segment.owner = Node.id t.node;
      owner_generation = t.generation;
      name;
      seg;
      exported = true;
    }
  in
  Hashtbl.add t.directory name handle;
  handle

let check_handle t (h : Remote_segment.t) op =
  if h.owner <> Node.id t.node || h.owner_generation <> t.generation then
    failwith (Printf.sprintf "Server.%s: stale or foreign handle %s" op h.name)

let release t (h : Remote_segment.t) =
  check_alive t "release";
  check_handle t h "release";
  (match Hashtbl.find_opt t.directory h.name with
  | Some h' when h' == h -> Hashtbl.remove t.directory h.name
  | _ -> failwith (Printf.sprintf "Server.release: %S is not exported" h.name));
  h.exported <- false;
  Mem.Allocator.free (Node.allocator t.node) h.seg

let lookup t ~name =
  check_alive t "lookup";
  Hashtbl.find_opt t.directory name

let exports t =
  check_alive t "exports";
  Hashtbl.fold (fun _ h acc -> h :: acc) t.directory []
  |> List.sort (fun a b -> compare (Remote_segment.base a) (Remote_segment.base b))

let exported_bytes t =
  check_alive t "exported_bytes";
  Hashtbl.fold (fun _ h acc -> acc + Remote_segment.len h) t.directory 0
