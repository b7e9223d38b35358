(** Systematic schedule exploration over the Pthreads simulator.

    The engine drives {!Pthreads.Engine}'s exploration hook: at every
    scheduling point (kernel exit, checkpoint, blocking call) the running
    thread is requeued and the hook chooses which ready thread runs next.
    Because the whole simulation is deterministic, a run is identified by
    its decision list — a {!Schedule.t} — and can be re-executed exactly.

    {!run} enumerates interleavings depth-first, pruned with dynamic
    partial-order reduction (persistent/backtrack sets in the style of
    Flanagan–Godefroid, keyed on the objects each step touches) plus sleep
    sets.  {!run_parallel} performs the same reduction but distributes the
    frontier of backtrack points across OCaml domains (see {!Frontier}),
    with a deterministic batch-merge so results are independent of the
    domain count.  For state spaces too large to exhaust, {!Sample} (the
    sibling module) samples schedules instead, by PCT priority scheduling
    or a uniform random walk.  All modes check
    {!Invariant} at every decision point and shrink any failing schedule
    to a minimal replayable counterexample. *)

type failure_kind =
  | Deadlocked of string  (** the dispatcher found no runnable thread *)
  | Killed of int  (** fatal signal (e.g. a simulated SIGSEGV) *)
  | Invariant_violated of string  (** see {!Invariant} *)
  | Main_raised of string  (** uncaught exception in the main thread *)
  | Bad_exit of int  (** main returned nonzero (assertion-style failures) *)

val failure_kind_to_string : failure_kind -> string

val verdict : Pthreads.Types.engine -> failure_kind option
(** How a run that finished ends: {!Invariant.check_final} first, then
    main's exit status — [Main_raised] for an uncaught exception,
    [Bad_exit] for a nonzero status.  [None] for a clean run. *)

val of_stop_reason : Pthreads.Types.stop_reason -> failure_kind
(** A run that raised [Types.Process_stopped]: [Deadlocked] or [Killed]. *)

type failure = {
  kind : failure_kind;
  schedule : Schedule.t;  (** minimal shrunk counterexample *)
  first_schedule : Schedule.t;  (** the schedule as first discovered *)
}

type exhaustion = {
  ex_frontier : int;
      (** backtrack points demanded by the race analysis but never
          explored because the run budget ran out *)
  ex_cut_runs : int;  (** runs truncated by the per-run step budget *)
}
(** Structured account of why an exploration was not exhaustive. *)

type stats = {
  runs : int;  (** schedules executed (including pruned/shrinking ones) *)
  steps : int;  (** total scheduling decisions taken *)
  max_depth : int;  (** longest run, in decisions *)
  pruned : int;  (** runs cut short by sleep sets *)
  complete : bool;  (** state space exhausted (no failure, no budget cut) *)
  exhausted : exhaustion option;
      (** [Some _] iff a budget truncated exploration: how much frontier
          was left and how many runs were cut.  [None] for an
          exhaustive or failing run. *)
}

type result = { failure : failure option; stats : stats }

type config = {
  max_runs : int;  (** exploration budget; exceeding it clears [complete] *)
  max_steps : int;  (** per-run decision budget (guards non-termination) *)
  dpor : bool;
      (** partial-order reduction with sleep sets (off = enumerate
          everything) *)
}

val default_config : config

val run : ?config:config -> (unit -> Pthreads.Types.engine) -> result
(** [run mk] explores the program built by [mk] (typically
    [fun () -> Pthread.make_proc body]) until the state space is exhausted,
    a failure is found, or the budget runs out.  [mk] is called once per
    run and must build a fresh, not-yet-started process each time. *)

val run_parallel :
  ?config:config ->
  ?record:(Schedule.t -> unit) ->
  domains:int ->
  (unit -> Pthreads.Types.engine) ->
  result
(** [run_parallel ~domains mk] — DPOR exploration with the frontier of
    backtrack points distributed over [domains] OCaml domains.  Each
    worker replays a decision prefix against a private engine (no engine
    state is shared), and completed runs are merged back in deterministic
    batch order, so the explored schedule set, the counterexample and the
    statistics are identical for every [domains] value — parallelism buys
    wall-clock speed only.  [record] is called once per executed run, on
    the coordinating domain, with the run's complete decision list.
    [domains = 1] degenerates to batch-sequential exploration.  Raises
    [Invalid_argument] if [domains < 1].

    The traversal order differs from {!run}'s depth-first order, so on a
    budget-truncated exploration the two drivers may cover different
    subsets; on an unbounded budget both find a failure iff one exists. *)

(** {2 Sampler-facing primitives}

    Building blocks used by {!Sample} and by direct tests: run one
    schedule under a caller-supplied policy, force a recorded schedule,
    and minimize a failing decision list. *)

type outcome =
  | Ok_run  (** ran to completion (or was pruned) without failing *)
  | Failed of failure_kind
  | Cut_run  (** exceeded the per-run step budget *)

val run_once :
  ?config:config ->
  pick:(k:int -> enabled:int list -> prev:int option -> int) ->
  (unit -> Pthreads.Types.engine) ->
  Schedule.t * outcome
(** One run under policy [pick] ([k] = decision index, [enabled] = ready
    tids in creation order, [prev] = previously dispatched tid).  Returns
    the complete decision list actually taken and the outcome.  A sampled
    run never prunes. *)

val force :
  ?config:config ->
  strict:bool ->
  (unit -> Pthreads.Types.engine) ->
  Schedule.t ->
  Schedule.t * outcome * int option
(** Re-execute a recorded schedule.  With [~strict:true] the run is
    abandoned at the first decision that is no longer enabled (returned as
    [([||], Ok_run, Some k)]); with [~strict:false] the default policy
    fills in and the first divergence index is reported.  The returned
    schedule is the complete decision list of the forced run (the input
    plus any default-policy tail).  This is the one forced-run entry
    point: {!Replay} is [~strict:false], shrinking is [~strict:true]. *)

(** Pure shrinking passes over an abstract failing predicate.  [fails]
    must be deterministic; it is typically [force ~strict:true] composed
    with an outcome check on a decision list, or a fault-plan run
    ([Fault.Soak.shrink] minimizes injection lists with the same
    passes). *)
module Shrink : sig
  val prefix_search : fails:('a array -> bool) -> 'a array -> 'a array
  (** Shortest failing prefix by binary search.  Failure depth need not be
      monotone in prefix length, so the answer is verified and the full
      list returned when verification fails.  Requires [fails full]. *)

  val splice : fails:('a array -> bool) -> 'a array -> 'a array
  (** Greedy single-element removal to a fixpoint: the result still
      satisfies [fails] and is 1-minimal (no single further removal
      does). *)

  val minimize : fails:('a array -> bool) -> 'a array -> 'a array
  (** [splice] after [prefix_search]. *)
end

val shrink_failure :
  ?config:config ->
  ?fails:(Schedule.t -> bool) ->
  (unit -> Pthreads.Types.engine) ->
  failure_kind ->
  Schedule.t ->
  failure
(** Shrink a failing decision list to a minimal counterexample and
    re-record its complete schedule.  The default [fails] forces a prefix
    strictly and checks that it fails {e somehow}; pass a custom [fails]
    when the verdict lives outside the run outcome (e.g. a sanitizer
    report).  The failure [kind] is re-read from the shrunk run when it
    fails directly, else the supplied kind is kept. *)

val touch : Pthreads.Types.engine -> int -> unit
(** Annotate the current step as touching user object [id].  Needed when a
    racy interaction goes through plain OCaml state the library cannot see
    (e.g. a shared flag); without the annotation DPOR may soundly skip the
    racing interleavings of those steps.  Conservatively treated as a
    write by both the explorer and the sanitizer. *)

val touch_read : Pthreads.Types.engine -> int -> unit
val touch_write : Pthreads.Types.engine -> int -> unit
(** Read/write-precise variants of {!touch}.  The explorer's dependence
    relation ignores the distinction (same footprint key), so schedules
    and golden [.sched] files are unaffected; the sanitizer
    ([Sanitize.Monitor]) uses it to avoid flagging read–read sharing. *)

val pp_stats : Format.formatter -> stats -> unit
