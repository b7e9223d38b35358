(** The dispatcher's ready structure: one FIFO deque per priority level
    plus a bitmap of non-empty levels (see {!Wait_queue}).

    The structure lives in [engine.ready]; the head of each level runs
    next.  Push, pop, remove and highest-priority lookup are O(1).
    Functions take the engine so the perverted random policy can also
    remove a uniformly random thread. *)

open Types

val push_tail : engine -> tcb -> unit
(** Enqueue at the tail of the thread's (effective-)priority queue. *)

val push_head : engine -> tcb -> unit
(** Enqueue at the head — used for preempted threads and for threads whose
    protocol boost was reset, which the paper argues must not be penalized. *)

val push_tail_lowest : engine -> tcb -> unit
(** Enqueue at the tail of the lowest priority queue regardless of the
    thread's priority (perverted ordered/random switch). *)

val remove : engine -> tcb -> unit
(** Remove the thread wherever it is queued (priority changes). *)

val highest_prio : engine -> int
(** Priority level of the best ready thread; -1 when nothing is ready. *)

val pop_highest : engine -> tcb option

val pop_random : engine -> Vm.Rng.t -> tcb option
(** Remove a uniformly random ready thread (perverted random switch). *)

val size : engine -> int

val iter : engine -> (tcb -> unit) -> unit
