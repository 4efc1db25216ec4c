(** Fixed-bucket histograms for latency / cost distributions.

    Buckets are defined once by an array of strictly increasing
    integer upper bounds; a trailing overflow bucket catches
    everything above the last bound.  [observe] is a binary search
    over a handful of bounds plus two atomic increments (bucket, sum)
    — cheap enough for the per-packet path, and safe from concurrent
    domains.  There is no separate observation count: the count is
    the sum of the buckets, so a count derived from one {!counts} read
    always agrees with it (a read concurrent with observes may see
    [sum] momentarily out of step, but nothing is ever lost).  The
    default bounds suit the repository's cycle cost model (hundreds to tens
    of thousands of cycles). *)

type t

val default_bounds : int array

(** [make ?bounds name] — raises [Invalid_argument] if [bounds] is
    empty or not strictly increasing. *)
val make : ?bounds:int array -> string -> t

val name : t -> string

(** Record one value (negative values land in the first bucket). *)
val observe : t -> int -> unit

(** Number of observations: the sum of one {!counts} read. *)
val total : t -> int

(** Sum of observed values. *)
val sum : t -> int

(** [quantile t q] estimates the [q]-quantile ([q] clamped to [0,1])
    by linear interpolation within the containing bucket: the rank's
    position inside the bucket maps linearly onto the bucket's value
    range, the first bucket's lower edge being 0.  Ranks landing in
    the overflow bucket report the last finite bound (a conservative
    lower bound).  Returns 0.0 for an empty histogram.  Equal to
    {!quantile_of_counts} over one {!counts} read. *)
val quantile : t -> float -> float

(** [quantile_of_counts ~bounds counts q] — the same estimate over a
    bucket array already read ([counts] has [Array.length bounds + 1]
    entries, the last the overflow bucket), so several quantiles of
    one snapshot agree with each other and with its count. *)
val quantile_of_counts : bounds:int array -> int array -> float -> float

val bounds : t -> int array

(** Per-bucket counts; length is [Array.length (bounds t) + 1], the
    last entry being the overflow bucket. *)
val counts : t -> int array

val reset : t -> unit
