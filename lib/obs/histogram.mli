(** Log2-bucketed histograms of non-negative integer samples (nanosecond
    durations, mostly).

    Bucket [b] holds the values whose highest set bit is [b - 1], i.e. the
    half-open range [[2^(b-1), 2^b)]; bucket 0 holds zero (and any
    negative sample, clamped).  Power-of-two buckets keep the profile
    readable across the six decades between an uncontended lock
    acquisition and a millisecond critical section without choosing a
    scale in advance. *)

type t

val create : unit -> t
val add : t -> int -> unit

val count : t -> int
(** Samples recorded. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src]'s samples into [dst] exactly (bucket
    counts, count, total and max all add) — for aggregating per-domain
    histograms after a parallel run.  [src] is unchanged. *)

val total : t -> int
(** Sum of all samples. *)

val max_value : t -> int
val mean : t -> float
(** 0 when empty. *)

val percentile : t -> float -> int
(** [percentile h p] for [p] in [0, 100]: the upper bound of the first
    bucket at which the cumulative count reaches [p] percent, clamped to
    {!max_value} — an upper estimate with bucket resolution that never
    exceeds the largest sample.  0 when empty. *)

val buckets : t -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending; samples fall in
    [[lo, hi)]. *)

val pp : Format.formatter -> t -> unit
(** ASCII bucket bars with counts. *)

val add_json : Buffer.t -> t -> unit
(** Append a JSON object
    [{"count":..,"total":..,"max":..,"mean":..,"buckets":[[lo,count],..]}]. *)
