(** Counting semaphores, layered on mutexes and condition variables.

    The paper: "Other synchronization methods such as counting semaphores
    can be easily implemented on top of these primitives" — and Table 2
    benchmarks exactly this layered implementation (one Dijkstra P plus one
    V operation).  This module uses only the public [Mutex]/[Cond] API. *)

module Pthread = Pthreads.Pthread

type t

val create : Pthread.proc -> ?name:string -> int -> t
(** [create proc n] makes a semaphore with initial value [n >= 0]. *)

val wait : Pthread.proc -> t -> unit
(** Dijkstra's P: decrement, suspending while the value is zero. *)

val try_wait : Pthread.proc -> t -> bool
(** Non-blocking P; [false] when the value is zero. *)

val post : Pthread.proc -> t -> unit
(** Dijkstra's V: increment and wake one waiter. *)

val value : Pthread.proc -> t -> int
(** Instantaneous value (racy by nature; for tests and monitoring). *)
