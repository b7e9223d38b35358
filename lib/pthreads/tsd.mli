(** Thread-specific data (the [pthread_key_*]/[pthread_{get,set}specific]
    interface), typed.

    Keys are process-wide; each thread holds its own value slot per key.  A
    key's destructor runs, for each thread that still holds a non-[None]
    value, when that thread terminates (up to four passes, since destructors
    may store new values). *)

type 'a key

val create_key : Types.engine -> ?destructor:('a -> unit) -> unit -> 'a key
(** @raise Failure when the table of {!Types.max_tsd_keys} keys is full. *)

val set : Types.engine -> 'a key -> 'a option -> unit
(** Set the calling thread's value for the key ([None] clears it). *)

val get : Types.engine -> 'a key -> 'a option
(** The calling thread's value, [None] if unset.  Also [None] if the slot
    holds a value written through a different key object (impossible through
    this interface). *)

val delete_key : Types.engine -> 'a key -> unit
(** [pthread_key_delete]: unregister the destructor and drop every
    thread's value for the key.  Subsequent [get]/[set] through the key
    raise [Invalid_argument]. *)
