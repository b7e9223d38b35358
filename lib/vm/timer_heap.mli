(** Binary min-heap of deadlines: the one timer index of the library.

    The virtual kernel's interval timers ({!Unix_kernel}) and the engine's
    timed waiters (its sleep index) both keep their deadlines here.  Each
    element carries an integer key (an absolute expiry, in ns) and an arm
    sequence number; the heap is ordered by [(key, id)], so elements with
    the same key come out in the order they were pushed, which the
    deterministic scheduler and the DPOR replayer rely on for same-tick
    timers.

    {!push}, {!reinsert}, {!remove} and {!pop} are O(log n); {!min_key}
    is O(1) and exact: it is the earliest key itself, so a caller that
    sleeps until it finds that element due.  The element record is the
    handle {!remove} takes (no id table).  Pushing allocates the element
    (five words) and, when the array is full, a twice larger one; nothing
    else allocates.  Rules such as an interval timer's re-arm belong to
    the caller. *)

type 'a t
(** A heap of elements carrying values of type ['a]. *)

type 'a elt
(** An element: the handle {!remove} and {!reinsert} take. *)

val create : unit -> 'a t

val push : 'a t -> key:int -> 'a -> 'a elt
(** Insert a new element with the next arm sequence number. *)

val reinsert : 'a t -> 'a elt -> key:int -> unit
(** Put an element that is not in the heap (popped or removed) back with
    a new key, keeping its sequence number and its handle. *)

val remove : 'a t -> 'a elt -> bool
(** Take the element out.  [false] if it was not in the heap (popped or
    already removed). *)

val min_key : 'a t -> int
(** The earliest key, [max_int] iff the heap is empty. *)

val top : 'a t -> 'a elt
(** The earliest element, left in place.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a elt
(** Remove and return the earliest element.
    @raise Invalid_argument on an empty heap. *)

val key : 'a elt -> int

val id : 'a elt -> int
(** Arm sequence number, from 1, never reused: elements with equal keys
    come out in ascending [id] order. *)

val value : 'a elt -> 'a

val length : 'a t -> int
(** Elements in the heap.  O(1). *)

val peak_length : 'a t -> int
(** High-water mark of {!length} over the heap's lifetime. *)
