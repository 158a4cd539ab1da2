(** On-memory layouts of PERSEAS' recoverable metadata.

    Everything a recovering workstation needs lives in remote memory in
    these formats: the metadata segment (epoch + segment table) and the
    undo-log records.  Serialisation is to/from concrete bytes so that a
    node that has never seen the database can parse them after
    connecting with [sci_connect_segment]. *)

val meta_segment_name : string
(** Default-namespace metadata name, [meta_name ~ns:default_namespace]. *)

val undo_segment_name : string

val default_namespace : string

val valid_namespace : string -> bool
(** Non-empty, at most {!max_name_length} bytes, no ['!']. *)

val meta_name : ns:string -> string
val undo_name : ns:string -> string

val db_export_name : ?ns:string -> string -> string
(** Directory name of a database segment's mirror, within a namespace
    (several databases can then share one memory server).  Raises
    [Invalid_argument] on the empty string, names over
    {!max_name_length}, names containing ['!'] (reserved), or an
    invalid namespace. *)

val max_name_length : int

val ckpt_dir_name : ns:string -> string
(** Export name of the checkpoint directory block on a checkpoint
    target: {!ckpt_dir_size} bytes whose u64 word at offset 0 holds the
    generation of the newest published checkpoint (0 = none). *)

val ckpt_slot_name : ns:string -> slot:int -> string
(** Export name of checkpoint slot 0 or 1.  Generations alternate
    between the two slots so publishing a new checkpoint never corrupts
    the previous valid one. *)

val ckpt_dir_size : int

(** {1 Metadata segment} *)

val meta_magic : int64
val meta_header_size : int
(** magic, epoch, segment count. *)

val meta_table_entry_size : int
val meta_size : max_segments:int -> int

val write_meta_magic : bytes -> unit
val read_meta_magic : bytes -> int64
val epoch_offset : int
(** Byte offset of the epoch word inside the metadata segment — the
    8-byte field whose remote update is the commit point. *)

val write_epoch : bytes -> int64 -> unit
val read_epoch : bytes -> int64
val write_nsegs : bytes -> int -> unit
val read_nsegs : bytes -> int

val ckpt_base_offset : int
(** Byte offset of the dirty-list base word: the cut since which the
    mirror's dirty-chunk list ({!dirty_list_name}) names every chunk a
    commit wrote, or zero while the primary keeps no list (no
    checkpoint target, or none published yet).  Recovery adopts a
    checkpoint slot only if this word in the chosen mirror's meta is
    non-zero and at most the slot's cut — a meta written by a primary
    with no target carries a zero here. *)

val write_ckpt_base : bytes -> int64 -> unit
val read_ckpt_base : bytes -> int64

val write_table_entry : bytes -> index:int -> name:string -> size:int -> unit
(** Name, size, and 8 reserved zero bytes. *)

val read_table_entry : bytes -> index:int -> string * int
(** Raises [Failure] on a corrupt entry. *)

(** {1 Dirty-chunk list}

    Segments are tracked in [chunk_bytes]-byte chunks, numbered across
    segments in index order with one unused number after each segment,
    so that no run of consecutive numbers spans two segments.  While a checkpoint target is
    attached and a checkpoint has been published, every mirror keeps a
    list of the chunk runs written since the list's base cut
    ({!ckpt_base_offset}): [dirty_capacity] entries of
    [dirty_entry_size] bytes, each the epoch of the commit that
    appended it and a run [(first, count)] of chunks.  Entries appended
    since the base carry epochs above it, so the first entry at or
    below the base ends the list; a list with no such entry is full and
    names nothing reliably.  Recovery adopts a chunk from a slot only if
    no listed run covers it; every other chunk comes from the mirror.
    What recovery reads is the list's used prefix, whatever the
    database's size. *)

val dirty_list_name : ns:string -> string
(** Export name of the dirty-chunk list on a mirror. *)

val chunk_bytes : int
(** Tracking granularity: one SCI line. *)

val chunk_count : size:int -> int
(** Chunks of a segment of [size] bytes (the last one may be short). *)

val chunk_bases : int list -> int list * int
(** For segments of the given sizes, in index order: the number of each
    segment's first chunk, and the numbers used in all (gaps included). *)

val dirty_entry_size : int
val dirty_capacity : int
(** Entries a list holds. *)

val dirty_entry : epoch:int64 -> first:int -> count:int -> bytes
(** One entry: the appending commit's epoch (u64), then the run's first
    chunk and chunk count (u32 each).  Raises [Invalid_argument] on a
    run that does not fit. *)

val dirty_entry_epoch : bytes -> off:int -> int64
val dirty_entry_first : bytes -> off:int -> int
val dirty_entry_count : bytes -> off:int -> int
(** The fields of the entry at [off]. *)

(** {1 Undo records}

    A record is a 24-byte header followed by the before-image:
    epoch (8), segment index (4), offset (4), length (4), checksum (4,
    over header fields and payload).  Records start on aligned
    boundaries — {!undo_slot} (64-byte: the baselines, and PERSEAS in
    eager mode) or {!undo_slot_packed} (32-byte: PERSEAS under group
    commit) — so a log convoy streams as dense whole SCI buffers. *)

type undo_header = { epoch : int64; seg_index : int; off : int; len : int }

val align64 : int -> int
(** Round up to the next 64-byte (SCI line) boundary — also the
    alignment of segment images inside a checkpoint slot. *)

val undo_header_size : int
val undo_slot : off:int -> payload_len:int -> int
(** Offset of the next record given one at [off] with that payload. *)

val undo_slot_packed : off:int -> payload_len:int -> int
(** Like {!undo_slot} but on 32-byte boundaries: a small record (8-byte
    payload) takes half a 64-byte SCI line instead of a whole one, so a
    group-commit convoy streams the log twice as densely.  The engine
    that writes a log must walk it with the same slot arithmetic it
    appended with; PERSEAS picks the stride from [config.group_commit]
    (eager engines keep the 64-byte stride, whose line-aligned starts
    are what per-record pushes want), the baselines keep the
    original. *)

val encode_undo : undo_header -> payload:bytes -> bytes
(** Header and payload as one buffer, checksummed. *)

val write_undo_header : Mem.Image.t -> off:int -> undo_header -> unit
(** Write the 24-byte header at [off], checksummed over the payload
    already in place behind it.  PERSEAS cuts each record straight into
    its local log this way — the before-image is copied into the slot,
    then the header written over its head — and group commit retags a
    staged record's epoch the same way. *)

val decode_undo_header : bytes -> off:int -> undo_header option
(** [None] if the bytes at [off] cannot be a record header (bad sizes).
    The checksum still has to be verified against the payload with
    {!verify_undo}. *)

val verify_undo : bytes -> off:int -> undo_header -> bool
(** Checks the stored checksum against header + payload read from the
    same buffer. *)
