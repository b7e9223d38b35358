(** Seeded fault soaking with shrinking.

    For each scenario: one clean calibration run counts the fault points
    and checks the program is sound unperturbed; then one run per seed
    under a {!Plan.random} plan, with [Check.Invariant] asserted at every
    fault point (and finally).  A failing plan is shrunk by
    [Check.Explore.Shrink.minimize], the passes that shrink schedules
    (binary search on the shortest failing prefix, then greedy
    single-injection drops to a fixpoint), to a minimal [.fault]
    counterexample that {!run_one} re-executes deterministically.

    The soak perturbs the program, not the scheduler: to sample schedules
    as well, run [Check.Sample] on the same scenarios. *)

type config = {
  seeds : int list;  (** one perturbed run per seed per scenario *)
  budget : int;  (** injections drawn per plan *)
  kinds : Plan.kinds;
  sanitize : bool;
      (** run every execution under [Sanitize.Monitor]: races, lock-order
          cycles and held-at-exit leaks are reported alongside invariant
          failures, and failing plans carry a [.san]-able report *)
}

val default_config : config
(** Seeds 1–10, budget 6, {!Plan.safe_kinds}, sanitizer on. *)

type failure = {
  f_scenario : string;
  f_seed : int;  (** -1 when the unperturbed calibration run itself failed *)
  f_kind : Check.Explore.failure_kind;
  f_plan : Plan.t;  (** minimal shrunk plan *)
  f_first_plan : Plan.t;  (** the plan as first discovered *)
  f_san : Sanitize.Report.t option;
      (** sanitizer findings of the shrunk run, when any — written next to
          the [.fault] artifact as a [.san] file by the demo/CI *)
}

type report = {
  r_scenarios : int;
  r_runs : int;  (** executions, excluding shrinking re-runs *)
  r_points : int;  (** fault points crossed, summed over runs *)
  r_injected : int;  (** faults applied, summed over runs *)
  r_failures : failure list;
}

val run_one :
  ?sanitize:bool ->
  mk:(unit -> Pthreads.Types.engine) ->
  Plan.t ->
  Check.Explore.failure_kind option * int * int
(** Execute one fresh program under one plan; returns
    [(outcome, points, injected)].  Deterministic: same [mk], same plan,
    same outcome — this is the replay primitive for [.fault] golden
    files.  With [sanitize] (default [true]) the run is monitored and
    predictive findings surface as an [Invariant_violated
    "sanitizer: ..."] outcome. *)

val run_full :
  ?sanitize:bool ->
  mk:(unit -> Pthreads.Types.engine) ->
  Plan.t ->
  Check.Explore.failure_kind option * int * int * Sanitize.Report.t option
(** Like {!run_one} but also returns the sanitizer report of the run
    ([None] only when [sanitize:false]). *)

val shrink :
  ?sanitize:bool ->
  mk:(unit -> Pthreads.Types.engine) ->
  Plan.t ->
  Plan.t * Check.Explore.failure_kind
(** Minimize a plan known to fail ([run_one] on it must return [Some _]);
    returns the shrunk plan and the failure it reproduces. *)

val soak : ?config:config -> Check.Scenarios.t list -> report

val default_suite : Check.Scenarios.t list
(** Fault-robust programs worth soaking by default: predicate loops,
    ordered locking, ceiling discipline, cancellation-state cycling.  The
    deliberately buggy scenarios (e.g.
    [Scenarios.lost_wakeup_no_loop]) are {e not} here — they are the
    demos and tests' quarry. *)

val json_of_report : report -> string
(** One-line JSON summary in the style of the bench output
    ([BENCH_soak: {...}]). *)

val pp_report : Format.formatter -> report -> unit
