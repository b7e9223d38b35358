(** Per-domain scheduler shards: the multi-core mode.

    A pool of [N] shards is [N] complete single-threaded engines — each
    with its own ready structure, waiter queues, timing wheel, tid table
    and kernel flag — pumped by [N] OCaml 5 domains.  Engines are never
    touched across domains; the only shared state is a mutex-guarded
    message inbox per shard, the mutex inside every {!handle}, a pool
    mutex where idle domains park, and a few atomic counters.  A shard's
    engine has no main thread: at every signal poll its backend's pump
    applies the queued messages in place, inside the kernel — a spawn
    becomes an ordinary green thread, a wake unblocks an awaiter — and
    its idle wait steals.

    Threads are homed on a shard at {!spawn} (round-robin, an explicit
    [~home], or [Attr.with_home]) and migrate only by work stealing: an
    idle shard takes up to half of a busy shard's {e not-yet-started}
    spawn messages — a closure that has not run is the only thing that
    can move between engines without moving scheduler state.

    The deterministic single-domain engine is untouched by all of this:
    parallel mode is a layer above it, entered only through
    {!run_parallel} (or [Pthreads.run ~domains]).

    An idle shard never polls: its backend waits for the next deadline
    (a virtual clock jump, or a unix [ppoll]), and with none it parks
    its domain until another shard queues a message for it, which rings
    the backend's [wake] doorbell.  When every shard is parked with
    every inbox empty, the pool fails with [Process_stopped (Deadlock _)]
    as a single engine does.  A shard on a unix backend parks too once
    nothing could wake it — no deadline, no watched fd, and no forwarded
    host signal that a handler or a [sigwait] would turn into a runnable
    thread — so a cross-shard await cycle stops with [Deadlock] there as
    well.  Shard virtual clocks drift independently. *)

type handle
(** The cross-shard future of a spawned task's exit status. *)

type outcome = {
  status : Types.exit_status;  (** how the root task ended *)
  stats : Engine.stats;  (** summed over all shards *)
  shard_stats : Engine.stats array;
  dispatches : int array;  (** per-shard thread resumptions *)
  tasks : int array;  (** per-shard tasks started (stolen ones count) *)
  steals : int;  (** tasks that migrated via stealing *)
  remote_wakes : int;  (** cross-shard wakeups routed through inboxes *)
}

val run_parallel :
  domains:int ->
  ?backend_for:(int -> Vm.Backend.t) ->
  ?profile:Vm.Cost_model.profile ->
  ?policy:Types.policy ->
  ?seed:int ->
  ?use_pool:bool ->
  ?trace:bool ->
  ?main_prio:int ->
  ?ceiling_mode:Types.ceiling_unlock_mode ->
  (Types.engine -> int) ->
  outcome
(** Run the function as the root task of a pool of [domains] shards
    (homed on shard 0) and block until every task and every thread they
    created has finished.  [backend_for i] builds shard [i]'s backend —
    backends hold OS resources and must not be shared, hence a factory
    (default: a fresh virtual backend per shard).  The first shard
    failure ([Process_stopped], an escaped exception) drains the pool
    and is re-raised here; a pool whose shards are all parked with empty
    inboxes fails with [Process_stopped (Deadlock _)].  [main_prio] is
    the root task's priority.
    @raise Invalid_argument if [domains < 2]. *)

val spawn :
  ?attr:Attr.t -> ?home:int -> Types.engine -> (Types.engine -> int) -> handle
(** Create a task on the shard chosen by [~home], [attr]'s
    [Attr.with_home] hint, or round-robin ([home] is taken modulo the
    pool size).  The task body receives the engine of whichever shard
    runs it.  In single-domain mode ([Pthreads.run] without [~domains])
    this degenerates to a local thread, so the same program runs under
    the model checker. *)

val await : Types.engine -> handle -> Types.exit_status
(** Block the calling thread until the task completes.  Safe from any
    shard; cross-shard completion is routed through the waiter's home
    inbox. *)

val poll : handle -> Types.exit_status option
(** Non-blocking completion probe. *)

val post_all : Types.engine -> Vm.Sigset.signo -> unit
(** Post a process-level signal on every shard (locally directly, to the
    others via their inboxes) — the parallel analogue of
    [Signal_api]'s process-level kill. *)

val shard_index : Types.engine -> int
(** The calling engine's shard number; 0 in single-domain mode. *)

val domain_count : Types.engine -> int
(** Shards in the pool; 1 in single-domain mode. *)

val steal_count : Types.engine -> int
(** Tasks stolen so far across the pool; 0 in single-domain mode. *)
