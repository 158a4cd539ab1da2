type t = {
  owner : int;
  owner_generation : int;
  name : string;
  seg : Mem.Segment.t;
  mutable exported : bool;
}

let base t = Mem.Segment.base t.seg
let len t = Mem.Segment.len t.seg

let pp ppf t =
  Format.fprintf ppf "%s@node%d:%a" t.name t.owner Mem.Segment.pp t.seg
