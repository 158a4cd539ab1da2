(** Handle to a segment of remote memory, mapped into the client's
    virtual address space.

    A handle names real bytes in the owner node's DRAM.  Handles become
    stale when the owner crashes (its generation counter advances);
    every access through a stale handle fails, mirroring pointers that
    no longer map anything. *)

type t = {
  owner : int;  (** Node id of the exporting workstation. *)
  owner_generation : int;  (** Owner's crash count when exported. *)
  name : string;  (** Directory name used by [connect_segment]. *)
  seg : Mem.Segment.t;  (** Physical placement in the owner's DRAM. *)
  mutable exported : bool;
      (** Set by [Server.export], cleared by [Server.release]: whether
          the handle still maps an exported segment. *)
}

val base : t -> int
val len : t -> int
val pp : Format.formatter -> t -> unit
