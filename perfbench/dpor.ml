(* The model checker as a workload: exhaustive sequential DPOR over a fixed
   set of safe catalogue scenarios, then a fixed budget of PCT runs with
   the sanitizer and invariants on over a clean scenario.  Tens of
   thousands of short-lived engines, where the serving workloads run a few
   long-lived ones.

   Every exploration is checked against the catalogue's expectation: no
   failure, state space exhausted, and exactly the expected number of
   schedules (DPOR is deterministic, so a changed count is a changed
   reduction, not noise). *)

open Perfbench
module E = Check.Explore
module Sm = Check.Sample
module S = Check.Scenarios

(* (scenario, schedules DPOR needs to exhaust it) *)
let dpor_set =
  [
    (S.micro_two, 13);
    (S.ordered_ab, 114);
    (S.three_two, 67_413);
    (S.ceiling_nested, 120);
    (S.cancel_cond_wait ~with_cleanup:true, 88);
  ]

let pct_scenario = S.lost_wakeup ~fixed:true
let pct_runs = 400
let pct_depth = 3

type acc = {
  lat_ns : Samples.t;  (** host time of each schedule, [mk] to [mk] *)
  setup_ns : Samples.t;  (** exploration start to its first schedule's end *)
  mutable schedules : int;
  mutable steps : int;  (** DPOR decisions *)
  mutable dpor_ns : int;  (** host time inside DPOR explorations *)
  mutable dpor_runs : int;
  mutable pct_ns : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let acc () =
  {
    lat_ns = Samples.create ();
    setup_ns = Samples.create ();
    schedules = 0;
    steps = 0;
    dpor_ns = 0;
    dpor_runs = 0;
    pct_ns = 0;
    attempted = 0;
    failed = 0;
    errors = [];
  }

(* Wrap a scenario's [make] so each call -- one per schedule -- closes the
   previous schedule's timing span.  [finish] returns the exploration's
   host time and its set-up time (start to the end of the first schedule).
   [trace] turns on the engine's event trace for every schedule. *)
let timed a ~trace mk =
  let start = Clock.now_ns () in
  let last = ref 0 and first_end = ref 0 in
  let make () =
    let t = Clock.now_ns () in
    if !last <> 0 then begin
      Samples.add a.lat_ns (t - !last);
      if !first_end = 0 then first_end := t
    end;
    last := t;
    a.schedules <- a.schedules + 1;
    let eng = mk () in
    if trace then Vm.Trace.set_enabled eng.Pthreads.Types.trace true;
    eng
  in
  let finish () =
    let t = Clock.now_ns () in
    if !last <> 0 then Samples.add a.lat_ns (t - !last);
    if !first_end = 0 then first_end := t;
    (t - start, !first_end - start)
  in
  (make, finish)

let expect a ~what ~expected_runs ~runs ok =
  a.attempted <- a.attempted + expected_runs;
  if not (ok && runs = expected_runs) then begin
    a.failed <- a.failed + expected_runs;
    a.errors <-
      Printf.sprintf "%s: %d schedules (expected %d)%s" what runs expected_runs
        (if ok then "" else ", verdict mismatch")
      :: a.errors
  end

let dpor_one a ~trace ((s : S.t), expected_runs) =
  let make, finish = timed a ~trace s.S.make in
  let r = E.run make in
  let ns, setup = finish () in
  Samples.add a.setup_ns setup;
  a.dpor_ns <- a.dpor_ns + ns;
  a.dpor_runs <- a.dpor_runs + r.E.stats.E.runs;
  a.steps <- a.steps + r.E.stats.E.steps;
  expect a ~what:("dpor " ^ s.S.name) ~expected_runs ~runs:r.E.stats.E.runs
    (r.E.failure = None && r.E.stats.E.complete)

let pct_one a ~trace ?(sanitize = true) ~seed () =
  let make, finish = timed a ~trace pct_scenario.S.make in
  let cfg = { Sm.default_config with runs = pct_runs; sanitize } in
  let r = Sm.run ~config:cfg ~method_:(Sm.Pct { depth = pct_depth }) ~seed make in
  a.pct_ns <- a.pct_ns + fst (finish ());
  expect a ~what:("pct " ^ pct_scenario.S.name) ~expected_runs:pct_runs
    ~runs:r.Sm.s_runs (r.Sm.s_failure = None)

(* One pass: every DPOR scenario, then the PCT budget. *)
let pass a ~trace ~seed =
  List.iter (dpor_one a ~trace) dpor_set;
  pct_one a ~trace ~seed ()
