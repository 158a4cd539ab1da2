(** A node's physical memory as a concrete byte image.

    Data movement in the simulation is real: undo logs, mirrored
    databases and recovery all copy actual bytes between images, so
    correctness properties (atomicity, mirror equality) are checked
    against real state rather than assumed.  Costs are charged
    separately by the components that drive the copies. *)

type t

val create : size:int -> t
(** A zero-filled image of [size] bytes.  [size] must be positive. *)

val of_bytes : bytes -> t
(** An image over [bytes] itself, not a copy: writes to the image land
    in the buffer.  For reading a remote copy into a buffer in place.
    The buffer must not be empty. *)

val size : t -> int

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val read_u32 : t -> int -> int
(** Little-endian, 4-byte aligned access not required. *)

val write_u32 : t -> int -> int -> unit

val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit

val read_bytes : t -> off:int -> len:int -> bytes
val write_bytes : t -> off:int -> bytes -> unit

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Copy between (or within) images.  Overlapping self-copies behave
    like [Bytes.blit] (memmove semantics). *)

val fill : t -> off:int -> len:int -> char -> unit

val wipe : t -> unit
(** Model power loss: all bytes revert to a recognisable garbage
    pattern (0xDE), distinct from the zero fill of fresh memory. *)

val equal_range : t -> t -> off:int -> len:int -> bool
val checksum : t -> off:int -> len:int -> int64
(** FNV-1a over the range; used by tests and workload validation. *)

val fnv32 : t -> seed:int -> off:int -> len:int -> int
(** 32-bit FNV-1a over the range, continuing from [seed]: each byte
    is xored in, then the hash is multiplied by the FNV prime, modulo
    2{^32}.  One bounds check for the whole range. *)

val snapshot : t -> off:int -> len:int -> bytes
(** Alias of {!read_bytes}, named for test-oracle call sites. *)
