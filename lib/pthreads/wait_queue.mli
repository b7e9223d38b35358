(** Priority-bucketed FIFO queues of threads, shared by the dispatcher's
    ready structure ([engine.ready]) and every waiter queue (mutex,
    condition variable, join).

    One intrusive doubly-linked deque per priority level plus a bitmap of
    non-empty levels: push, pop, remove and highest-priority lookup are all
    O(1) (the bitmap scan is a constant [n_prios]-bit highest-set-bit).
    Threads carry their own links ([tcb.q_next]/[q_prev]/[q_in]), so no
    cells are allocated on the hot path — the FSU-pthreads design the paper
    relies on for its "library kernel is cheap" claim.

    A thread can be a member of at most one queue at a time; pushing a
    queued thread raises [Invalid_argument]. *)

open Types

val create : unit -> pq

val push_tail : pq -> tcb -> unit
(** Enqueue at the tail of the thread's effective-priority bucket — the
    order [Tcb.insert_by_prio] used to produce (descending priority, FIFO
    within a level). *)

val push_head : pq -> tcb -> unit
(** Enqueue at the head of the thread's effective-priority bucket. *)

val push_tail_at : pq -> tcb -> int -> unit
(** Enqueue at the tail of an arbitrary bucket, regardless of the thread's
    priority (the perverted policies demote to bucket [min_prio]). *)

val remove : pq -> tcb -> unit
(** Unlink wherever the thread sits; no-op if it is not in this queue. *)

val pop_highest : pq -> tcb option
(** Dequeue the head of the highest non-empty bucket. *)

val peek_highest : pq -> tcb
(** The head of the highest non-empty bucket, left queued; [nil_tcb] when
    the queue is empty (a sentinel, not an option: the dispatcher and the
    wake paths ask on every switch). *)

val random_member : pq -> Vm.Rng.t -> tcb
(** A uniformly random member, left queued (the perverted random policy's
    pick on [engine.ready]); [nil_tcb] when empty.  Counts members in
    {!iter} order, so a seed always picks the same thread. *)

val highest_prio : pq -> int
(** Bucket index of the best queued thread; -1 when the queue is empty. *)

val reposition : pq -> tcb -> old_prio:int -> unit
(** Relink a member whose [prio] just changed from [old_prio]: a rising
    thread goes to the tail of its new bucket, a falling thread to the
    head — exactly where a stable re-sort of the old priority-ordered list
    would have placed it, in O(1). *)

val size : pq -> int
val is_empty : pq -> bool

val iter : pq -> (tcb -> unit) -> unit
(** Descending priority, FIFO within a level.  The visited thread may be
    removed by [f]. *)

val fold : pq -> ('a -> tcb -> 'a) -> 'a -> 'a
val to_list : pq -> tcb list

