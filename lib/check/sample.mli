(** Probabilistic schedule sampling for state spaces DPOR cannot exhaust:
    PCT randomized priority scheduling and uniform random walks.

    PCT (Burckhardt et al., ASPLOS 2010) finds any bug of depth [d] with
    probability at least [1/(n * k^(d-1))] per run ([n] threads, [k]
    steps); the report carries that bound instantiated with the largest
    [n] and [k] observed, plus the cumulative probability over the whole
    budget.  A uniform random walk has no such guarantee but is a useful
    baseline and diversifier.

    Every sampled run executes under {!Invariant} and (by default) the
    {!Sanitize.Monitor}, so predicted races, lock-order cycles and leaks
    count as findings even when the sampled schedule completes cleanly.
    Failures are shrunk ({!Explore.Shrink}) and re-recorded as complete
    decision lists, ready for [.sched] serialization and exact replay. *)

type method_ =
  | Pct of { depth : int }
      (** randomized priority scheduling with [depth - 1] priority-change
          points; [depth] is the bug depth targeted (>= 1) *)
  | Uniform  (** uniform random walk over the enabled threads *)

val method_to_string : method_ -> string

type config = {
  runs : int;  (** sampling budget (runs executed unless a failure stops it) *)
  max_steps : int;  (** per-run decision budget *)
  sanitize : bool;  (** attach {!Sanitize.Monitor} to every run *)
}

val default_config : config
(** 256 runs, 5000 steps, sanitizer on.  A nonzero exit status always
    counts as a failure ({!Explore.verdict}). *)

type bound = {
  b_threads : int;  (** n: most distinct threads seen in one run *)
  b_steps : int;  (** k: longest run, in decisions *)
  b_depth : int;  (** d: the targeted bug depth *)
  b_single : float;  (** >= 1/(n * k^(d-1)): per-run detection probability *)
  b_cumulative : float;  (** 1 - (1 - p)^runs over the executed budget *)
}
(** The published PCT detection-probability bound, instantiated with the
    observed workload parameters. *)

type report = {
  s_method : method_;
  s_seed : int;
  s_runs : int;  (** runs executed (stops early on the first failure) *)
  s_cut_runs : int;  (** runs cut by [max_steps] *)
  s_steps : int;
  s_max_depth : int;
  s_threads : int;
  s_failure : Explore.failure option;  (** shrunk, replayable *)
  s_failure_index : int option;
      (** the run that failed; with the seed, it re-derives the stream *)
  s_bound : bound option;  (** [Some _] iff the method is {!Pct} *)
}

val run :
  ?config:config ->
  method_:method_ ->
  seed:int ->
  (unit -> Pthreads.Types.engine) ->
  report
(** Sample the program built by [mk].  Run [i] draws from the stream
    [Rng.fork (Rng.create seed) i], so a failing run reproduces
    byte-for-byte from [(seed, i)] alone.  Stops at the first failure —
    direct (deadlock, invariant, signal, nonzero exit) or predicted by the
    sanitizer — and shrinks it.  Raises [Invalid_argument] for a PCT
    depth < 1. *)

val pp_report : Format.formatter -> report -> unit

val json_of_report : report -> string
(** One JSON object (method, seed, budget, bound, failure summary) for
    BENCH-style artifact lines. *)
