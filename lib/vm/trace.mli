(** Timestamped event trace.

    The library records scheduling, synchronization and signal events here
    when tracing is enabled.  Two consumers exist: the test-suite (which
    asserts on event sequences, e.g. the Figure 2 deferred-signal restart
    loop) and the benchmark harness (which renders the Figure 5
    priority-inversion time lines as ASCII Gantt charts). *)

type kind =
  | Dispatch_in  (** thread starts running *)
  | Dispatch_out  (** thread stops running *)
  | Ready
      (** thread became runnable: unblocked, created ready, preempted or
          yielded back into the ready queue.  The interval from a [Ready]
          to the thread's next [Dispatch_in] is its dispatch latency. *)
  | Thread_create of string  (** a thread was created (payload: its name) *)
  | Thread_exit
  | Mutex_lock of string  (** acquired the named mutex *)
  | Mutex_block of string  (** suspended on the named mutex *)
  | Mutex_unlock of string
  | Cond_block of string
  | Cond_wake of string
  | Signal_sent of int
  | Signal_delivered of int  (** a thread-level handler/action ran *)
  | Prio_change of int * int  (** old and new effective priority *)
  | Cancel_request
  | Sched_decision of int list * int
      (** schedule-exploration decision point: the tids enabled (ready) at
          the scheduling point and the tid picked to run — recorded by the
          engine when an exploration hook is installed, so a traced run
          doubles as a replayable decision list *)
  | Kernel_enter  (** the kernel flag was raised (monolithic monitor entry) *)
  | Kernel_exit  (** the kernel flag was cleared *)
  | Note of string

type event = { t_ns : int; tid : int; tname : string; kind : kind }

type t
(** A growable ring buffer of events.  Recording writes into preallocated
    slots — no per-event allocation beyond the event record itself. *)

val create : unit -> t
(** Unbounded until {!set_capacity} bounds it. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val record : t -> t_ns:int -> tid:int -> tname:string -> kind -> unit
(** No-op when disabled. *)

val events : t -> event list
(** In chronological order. *)

val length : t -> int
(** Events currently held, O(1). *)

val dropped : t -> int
(** Events overwritten because of the capacity bound. *)

val set_capacity : t -> int option -> unit
(** Change the bound; shrinking below {!length} drops the oldest events. *)

val clear : t -> unit

val kind_to_string : kind -> string

val pp_event : Format.formatter -> event -> unit

val find_all : t -> (event -> bool) -> event list

(** {1 Gantt rendering}

    [gantt t ~bucket_ns] renders one row per thread (ordered by thread id).

    Cell legend:
    - ['#'] — running while holding at least one mutex
    - ['='] — running
    - ['x'] — blocked on a mutex (from [Mutex_block] to the next [Ready])
    - ['z'] — waiting on a condition variable (from [Cond_block] to the
      next [Ready]/[Cond_wake])
    - ['.'] — ready but not running ([Ready] events are authoritative; a
      [Dispatch_out] alone never implies readiness)
    - [' '] — not alive yet / exited, or blocked on something the trace
      does not name (sleep, join, sigwait)

    This reproduces the visual language of the paper's Figure 5 (solid
    line = executing, grey box = holds a mutex). *)
val gantt : t -> bucket_ns:int -> string
