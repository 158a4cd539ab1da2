(** Ordered, mergeable byte-interval sets.

    The per-transaction write-set index behind redundancy elision:
    {!Perseas.set_range} records each declared range here, consults
    {!uncovered} to log before-images for first writes only, and
    {!Perseas.commit} ships {!intervals} — the maximal contiguous runs —
    instead of the raw declaration list.  Intervals are kept disjoint
    and non-adjacent (adding a touching or overlapping range merges it
    into its neighbours), so membership is one ordered-map predecessor
    lookup rather than a scan of every declared range.

    Offsets are byte offsets within one segment; a transaction keeps
    one [t] per segment it touched.  All operations are purely
    functional. *)

type t

val empty : t
val is_empty : t -> bool

val cardinal : t -> int
(** Number of coalesced intervals (not bytes). *)

val total : t -> int
(** Total bytes covered. *)

val add : t -> off:int -> len:int -> t
(** [add t ~off ~len] inserts [\[off, off+len)], merging any
    overlapping or adjacent intervals into one contiguous run.
    [len = 0] is a no-op; negative [off]/[len] raise
    [Invalid_argument]. *)

val covers : t -> off:int -> len:int -> bool
(** Whether [\[off, off+len)] is entirely inside the set.  Because
    intervals are coalesced this is a single predecessor lookup —
    O(log n) in the number of intervals. *)

val uncovered : t -> off:int -> len:int -> (int * int) list
(** The sub-ranges of [\[off, off+len)] NOT in the set, as ascending
    disjoint [(off, len)] pairs.  Empty when {!covers} holds; the
    whole query range when the set misses it entirely.  These are the
    fragments {!Perseas.set_range} still has to undo-log. *)

val intervals : t -> (int * int) list
(** All intervals as ascending [(off, len)] pairs — already coalesced
    into maximal contiguous runs. *)

val touch : align:int -> int -> int -> bool
(** [touch ~align hi o]: whether a run ending at [hi] (exclusive) and
    a later one starting at [o] lie in touching or shared [align]-byte
    line spans — when {!glue} merges them. *)

val glue : t -> align:int -> t
(** [glue t ~align] merges intervals whose [align]-byte line spans
    touch or overlap, shipping their exact hull as one run; intervals
    in disjoint line spans keep their exact extents (no boundary
    widening).  With [align = 64], the SCI full-packet line, this is
    the rule {!Perseas.commit} builds its propagation list by under
    [optimized_memcpy]: runs that would share packets anyway stream as
    one fuller burst, while isolated small runs ship no extra bytes.
    When no two runs share a line span the result is [t] itself.
    Safe for mirrored segments because the hull's gap bytes are
    identical on both sides (see DESIGN.md). *)

val union : t -> t -> t
(** All bytes covered by either set, coalesced. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** [{[0,64); [128,256)}] — for test failure messages. *)
