(** Hierarchical timing wheel (Varghese & Lauck).

    The virtual kernel's timer set used to be a linear [timer list]: every
    [check_events] walked all armed timers and every arm/disarm rebuilt the
    list.  At 10^6 threads — one timed wait per simulated client — those
    linear scans dominate everything.  This wheel makes the three hot
    operations O(1) amortized:

    - {!arm}: index into one of [levels * slots_per_level] buckets
      (intrusive doubly-linked lists) chosen by the expiry's distance from
      the wheel's current time;
    - {!disarm}: unlink the handle {!arm} returned, in place;
    - {!advance}: pop only the buckets whose deadline has been reached,
      cascading far-future timers down one level at a time (each timer
      moves at most [levels] times over its whole lifetime).  Between
      expiries it returns after one comparison against a cached earliest
      deadline.

    Arming allocates one record, the handle; nothing else on the arm,
    advance or disarm paths allocates except sorting a bucket that holds
    several timers.

    Resolution is exact: level 0 buckets span a single nanosecond, so a
    timer fires at precisely its expiry.  Within one tick, timers fire in
    deterministic [(expiry, id)] order — arm order, not reverse-arm order —
    which the deterministic scheduler and the DPOR replayer rely on.

    {!next_expiry} reads bucket cursors, not timers: it returns the
    earliest {e bucket deadline}, a lower bound on the earliest expiry that
    becomes exact once the timer has cascaded to level 0.  Callers that
    sleep until [next_expiry] and then {!advance} simply iterate: each
    round either fires a timer or strictly tightens the bound (at most
    [levels] rounds).  The virtual clock only ever jumps to times at or
    before the true next event, so observable behavior is unchanged. *)

type 'a t
(** A wheel holding timers carrying payloads of type ['a]. *)

type 'a timer
(** An armed (or spent) timer: the handle {!disarm} takes. *)

val create : 'a -> 'a t
(** An empty wheel at time 0.  The argument is the payload of the wheel's
    internal link sentinel; it is never fired. *)

val now : 'a t -> int
(** The wheel's current time: the [now] of the last {!advance}. *)

val arm :
  'a t -> now:int -> after_ns:int -> interval_ns:int -> tag:int -> 'a -> 'a timer
(** Arm a timer expiring at [now + after_ns] (clamped to the future),
    repeating every [interval_ns] if positive, carrying a small integer
    [tag] (the kernel's signal number) beside its payload.  [now] must be
    >= the wheel's current time. *)

val id : 'a timer -> int
(** Arm sequence number, from 1, never reused: same-expiry timers fire in
    ascending [id] order. *)

val tag : 'a timer -> int
val payload : 'a timer -> 'a

val disarm : 'a t -> 'a timer -> bool
(** Cancel the timer.  Returns [false] if it already fired (one-shot) or
    was already disarmed.  O(1). *)

val advance : 'a t -> now:int -> fire:('a timer -> unit) -> unit
(** Move the wheel's time forward to [now], calling [fire] for every timer
    whose expiry has been reached, in [(expiry, id)] order.  Interval
    timers are re-armed at the first multiple of their interval strictly
    after [now] (missed periods collapse — the BSD "signals do not queue"
    catch-up).  [fire] must not re-enter the wheel. *)

val next_expiry : 'a t -> int
(** Earliest bucket deadline: [max_int] iff no timer is armed.  A lower
    bound on the earliest expiry; exact when that timer sits at level 0.
    After an {!advance} to time [t], the deadline is strictly greater
    than [t].  O(1). *)

val armed : 'a t -> int
(** Number of timers currently armed.  O(1). *)

val peak_armed : 'a t -> int
(** High-water mark of {!armed} over the wheel's lifetime. *)

val cascades : 'a t -> int
(** Total number of timer re-bucketings performed by {!advance} — at most
    [levels] per timer ever armed (the amortized-O(1) budget); exposed so
    benchmarks can verify the bound. *)

(**/**)

val levels : int
(** Wheel levels: the most times one timer cascades. *)
