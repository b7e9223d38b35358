(** An alias over [Stdlib.Mutex], the lock that guards the shard inboxes
    and handles.  Nothing in the library uses it; it exists only so the
    benchmark ladder's [qlock.*] rows time the lock the shards take. *)

type t
type token  (** Release token from {!acquire}; pass it to {!release}. *)

val create : unit -> t
val acquire : t -> token
val release : t -> token -> unit

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock t f] runs [f] holding [t]; releases on return or raise. *)
