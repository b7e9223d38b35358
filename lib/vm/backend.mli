(** Pluggable kernel backends.

    The Pthreads engine consumes a narrow kernel surface — traps, the
    process signal state, the timer heap, asynchronous I/O completions,
    [sbrk], and a clock — all of it the {!Unix_kernel} state machine.  Both
    backends share that state machine (so BSD signal semantics,
    timer behaviour, and all accounting are identical by
    construction) and differ only in what {e feeds} it:

    - the {b virtual} backend ({!virtual_}) feeds nothing: time advances
      only when the scheduler decides, events come from simulated timers
      and {!Unix_kernel.submit_io}.  Fully deterministic — this is the
      backend required by [lib/check] (DPOR), [lib/sanitize] and
      [lib/fault].
    - the {b Unix} backend ([Vm.Real_kernel]) pumps real [Unix] events
      into the same state machine: an epoll wait wakes the requesters
      of fired socket slots via {!Unix_kernel.io_ready},
      forwarded host signals post through {!Unix_kernel.post_signal},
      and the clock is synchronized from the host's monotonic time.  Not
      deterministic; it serves real sockets.

    The engine interacts with a backend through two seams:

    - {!t.pump} runs at every checkpoint, before
      {!Unix_kernel.check_events}, to import external events;
    - {!t.wait} runs when every thread is blocked, to sleep until the next
      event.  The virtual closure advances the clock to the deadline; the
      Unix closure blocks in epoll until 200 us before the deadline, at
      1 ns timer slack (Linux still stretches a timeout by 1/1000 of
      itself), and inside that window polls once without blocking and
      returns, so the engine's idle loop, waiting again, spins through
      the rest: neither the slack of a block shorter than 200 ms nor the
      host's wake-up cost defers the wakeup.

    A third entry, {!t.wake}, is for other domains: it ends a blocked
    [wait] (the multi-core shard layer rings it when it queues work for
    an idle shard). *)

type kind =
  | Virtual  (** deterministic simulated kernel; virtual time *)
  | Unix_loop  (** real epoll loop; host monotonic time *)

(** Network operations a backend may provide (the Unix backend does; the
    virtual backend serves loopback traffic in-process, above this layer).
    Handles are small ints; calls answer a negative int when they would
    block — the caller fills a slot ({!net_watch}), blocks until the
    engine wakes it, and calls again. *)
type net_ops = {
  net_listen : port:int -> backlog:int -> int;
      (** Bind and listen on loopback; [port = 0] picks a free port. *)
  net_port : int -> int;  (** Actual bound port of a listener. *)
  net_socket : unit -> int;  (** A new socket to {!net_connect}. *)
  net_connect : int -> port:int -> int;
      (** Connect to loopback [port]; [0] once connected, negative while
          under way ([`Write]).  A refusal raises [Unix.Unix_error]. *)
  net_accept : int -> int;  (** [0] = the listener is closed. *)
  net_read : int -> bytes -> pos:int -> len:int -> int;
      (** [0] = EOF, also after a reset or on a closed handle.  A range
          outside the buffer raises [Invalid_argument]. *)
  net_write : int -> bytes -> pos:int -> len:int -> int;  (** As {!net_read}. *)
  net_watch : int -> [ `Read | `Write ] -> requester:int -> unit;
      (** Fill the handle's slot for that direction with [requester].
          The next readiness edge (or {!net_close}) fires the slot once:
          its requesters are woken with {!Unix_kernel.io_ready} (no
          signal is posted).  An edge with the slot empty is dropped, so
          watch only after a would-block answer. *)
  net_unwatch : int -> [ `Read | `Write ] -> requester:int -> unit;
      (** Take the requester out of the slot, if it has not fired: its
          wait ended another way (cancellation), and a slot nobody waits
          on must not keep an idle [wait] from reporting deadlock. *)
  net_close : int -> unit;  (** Also fires both slots. *)
}

type t = {
  kind : kind;
  kernel : Unix_kernel.t;
      (** The shared signal/timer/completion state machine. *)
  pump : unit -> unit;
      (** Import external events (real fd readiness, forwarded host
          signals) into [kernel].  Called at every checkpoint before
          [check_events].  No-op on the virtual backend. *)
  wait : deadline_ns:int option -> bool;
      (** Sleep until the next event when all threads are blocked.
          [deadline_ns] is the earliest known future event ([None] if no
          timer or simulated I/O is outstanding).  Returns [true] if
          progress is possible afterwards (the clock reached the deadline,
          or an external event arrived); [false] means provable deadlock:
          no deadline, and no external event can ever arrive.  A timed
          Unix wait may return [true] before its deadline with nothing
          new (a block cut short by a host signal; inside the last
          200 us, after one zero-timeout poll): the engine then waits
          again. *)
  wake : unit -> unit;
      (** The doorbell: callable from any domain, it makes a blocked or
          the next [wait] return [true].  It does not count as an
          external event source for [wait]'s deadlock verdict.  No-op on
          the virtual backend, whose [wait] never blocks. *)
  net : net_ops option;  (** [Some] on backends with real sockets. *)
  shutdown : unit -> unit;
      (** Release OS resources (fds, host signal handlers).  Idempotent.
          No-op on the virtual backend. *)
}

val virtual_ : ?clock:Clock.t -> Cost_model.profile -> t
(** The deterministic virtual backend: a fresh {!Unix_kernel} with a no-op
    pump, a [wait] that advances the virtual clock to the deadline (and
    reports deadlock when there is none), no [net], and a no-op
    [shutdown]. *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
