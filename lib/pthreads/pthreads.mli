(** The Pthreads library, reproduced from "A Library Implementation of
    POSIX Threads under UNIX" (Mueller, USENIX 1993) — curated facade.

    Everything application code needs is re-exported here: thread
    management ({!Pthread}), synchronization ({!Mutex}, {!Cond}), typed
    errors ({!Errno}), signals ({!Signal_api}), sockets over either backend ({!Net}), and
    the {!run} entry point that owns engine setup and backend teardown:

    {[
      let status, stats =
        Pthreads.run ~backend:(Pthreads.unix_backend ()) (fun proc -> ...)
    ]}

    Two backends drive the same API (see [Vm.Backend]): the deterministic
    virtual kernel ({!vm_backend}, the default — required by the model
    checker, sanitizer and fault layers) and the real Unix event loop
    ({!unix_backend} — real sockets, host signals, host time).

    The kernel modules ({!Engine}, {!Tcb}, {!Wait_queue}) are re-exported
    too: the layers the paper stacks on the library kernel (semaphores,
    thread-safe libc, the Ada tasking run-time) and the checker, fault
    injector and sanitizer call them directly. *)

(** {1 The API} *)

module Types = Types
module Errno = Errno
module Attr = Attr
module Pthread = Pthread
module Mutex = Mutex
module Cond = Cond
module Net = Net
module Signal_api = Signal_api
module Cancel = Cancel
module Cleanup = Cleanup
module Tsd = Tsd
module Jmp = Jmp
module Machine = Machine
module Shared = Shared
module Shard = Shard
module Qlock = Qlock
module Flat = Flat
module Debugger = Debugger
module Validate = Validate
module Costs = Costs

type proc = Types.engine
(** One simulated process (= one engine). *)

type backend = Vm.Backend.t

(** {1 Backends} *)

val vm_backend :
  ?clock:Vm.Clock.t -> ?profile:Vm.Cost_model.profile -> unit -> backend
(** The deterministic virtual backend (default profile: SPARC IPX).  This
    is what {!run} uses when no backend is given. *)

val unix_backend :
  ?forward_signals:(int * Vm.Sigset.signo) list -> unit -> backend
(** The real Unix event loop ([Vm.Real_kernel]): real loopback sockets,
    forwarded host signals, host monotonic time.  {!run} shuts it down
    (closing fds, restoring host handlers) when the process finishes. *)

val backend_of_string : string -> backend option
(** ["vm"]/["virtual"] or ["unix"]/["real"] — for [--backend] flags. *)

(** {1 Statistics} *)

(** [Engine.stats], re-declared so the fields are reachable through the
    facade. *)
type stats = Engine.stats = {
  virtual_ns : int;
  switches : int;
  kernel_traps : int;
  trap_detail : (string * int) list;
  sigsetmask_calls : int;
  signals_posted : int;
  signals_delivered_unix : int;
  signals_lost : int;
  thread_handler_runs : int;
  threads_created : int;
  heap_allocations : int;
  faults_injected : int;
  timers_armed : int;
}

val stats : proc -> stats
val pp_stats : Format.formatter -> stats -> unit

val dispatch_count : proc -> int
(** Monotone count of thread resumptions. *)

(** {1 Running a process} *)

val run :
  ?backend:backend ->
  ?backend_for:(int -> backend) ->
  ?domains:int ->
  ?profile:Vm.Cost_model.profile ->
  ?policy:Types.policy ->
  ?perverted:Types.perverted ->
  ?seed:int ->
  ?use_pool:bool ->
  ?trace:bool ->
  ?main_prio:int ->
  ?ceiling_mode:Types.ceiling_unlock_mode ->
  (proc -> int) ->
  Types.exit_status option * stats
(** Run a process whose main thread executes the given function, on the
    chosen backend (default: a fresh virtual backend).  Owns the whole
    lifecycle: builds the engine, runs every thread to completion, and —
    also on exceptional exit — shuts the backend down.  Returns main's
    exit status ([None] if another thread joined-and-reaped main) and the
    run statistics.

    [~domains:n] with [n >= 2] selects parallel mode: [n] scheduler
    shards on [n] OCaml domains (see {!Shard}), the function running as
    the root task on shard 0 and the returned stats summed over shards.
    Because a backend owns OS resources, parallel mode takes a factory
    [~backend_for:(fun shard -> ...)] instead of [~backend] (default: a
    fresh virtual backend per shard); [~perverted] is rejected there.
    [~domains:1] (or omitting it) is the deterministic single-domain
    engine, bit-identical either way.
    @raise Types.Process_stopped on deadlock or a fatal signal. *)

(** {1 Kernel modules}

    The library kernel under the API above: the engine (dispatcher,
    kernel flag, timers, signals), thread control blocks and the
    priority-bucketed queues that hold both the ready threads
    ([engine.ready]) and every waiter. *)

module Engine = Engine
module Tcb = Tcb
module Wait_queue = Wait_queue
