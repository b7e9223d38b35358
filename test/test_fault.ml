(* The fault-injection layer: errno surface, structured errors, plan
   serialization, the injection primitives, and the soak/shrink pipeline
   finding the seeded lost-wakeup bug. *)

open Tu
open Pthreads
module Plan = Fault.Plan
module Soak = Fault.Soak
module S = Check.Scenarios
module E = Check.Explore

(* ------------------------------------------------------------------ *)
(* Satellite 1: the errno type and its wire representation             *)
(* ------------------------------------------------------------------ *)

let all_errnos =
  Errno.
    [ EINVAL; EBUSY; EDEADLK; ESRCH; ETIMEDOUT; EPERM; EINTR; EAGAIN ]

let test_errno_roundtrip () =
  List.iter
    (fun e ->
      check bool
        ("of_int (to_int " ^ Errno.to_string e ^ ")")
        true
        (Errno.of_int (Errno.to_int e) = Some e);
      check bool
        ("of_string (to_string " ^ Errno.to_string e ^ ")")
        true
        (Errno.of_string (Errno.to_string e) = Some e))
    all_errnos;
  check bool "of_int 0 is None" true (Errno.of_int 0 = None);
  check bool "of_string junk is None" true (Errno.of_string "EJUNK" = None)

let test_flat_constants_are_errnos () =
  check int "EPERM" (Errno.to_int Errno.EPERM) Flat.eperm;
  check int "ESRCH" (Errno.to_int Errno.ESRCH) Flat.esrch;
  check int "EINTR" (Errno.to_int Errno.EINTR) Flat.eintr;
  check int "EAGAIN" (Errno.to_int Errno.EAGAIN) Flat.eagain;
  check int "EBUSY" (Errno.to_int Errno.EBUSY) Flat.ebusy;
  check int "EINVAL" (Errno.to_int Errno.EINVAL) Flat.einval;
  check int "EDEADLK" (Errno.to_int Errno.EDEADLK) Flat.edeadlk;
  check int "ETIMEDOUT" (Errno.to_int Errno.ETIMEDOUT) Flat.etimedout;
  check bool "errno_of_status eintr" true
    (Flat.errno_of_status Flat.eintr = Some Errno.EINTR);
  check bool "errno_of_status ok" true (Flat.errno_of_status Flat.ok = None);
  check int "status_of_errno" Flat.etimedout
    (Flat.status_of_errno Errno.ETIMEDOUT)

(* ------------------------------------------------------------------ *)
(* Satellite 2: the one structured exception                           *)
(* ------------------------------------------------------------------ *)

let test_structured_errors () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         (try
            Mutex.unlock proc m;
            Alcotest.fail "unowned unlock must raise"
          with Types.Error (Errno.EPERM, _) -> ());
         Mutex.lock proc m;
         (try
            Mutex.lock proc m;
            Alcotest.fail "relock must raise"
          with Types.Error (Errno.EDEADLK, _) -> ());
         Mutex.unlock proc m;
         (try
            ignore (Pthread.join proc (Pthread.self proc));
            Alcotest.fail "self-join must raise"
          with Types.Error (Errno.EDEADLK, _) -> ());
         (try
            ignore (Pthread.join proc 999);
            Alcotest.fail "join of no-such-thread must raise"
          with Types.Error (Errno.ESRCH, _) -> ());
         0));
  ()

(* ------------------------------------------------------------------ *)
(* Plans: generation and the .fault serialization                      *)
(* ------------------------------------------------------------------ *)

let every_kind_plan =
  Plan.
    [
      { at = 0; act = Spurious_wakeup 2 };
      { at = 1; act = Preempt };
      { at = 3; act = Trap_fault ("read", Errno.EINTR) };
      { at = 5; act = Signal_burst { signo = 30; count = 2; thread = None } };
      { at = 5; act = Signal_burst { signo = 31; count = 1; thread = Some 1 } };
      { at = 7; act = Cancel 0 };
      { at = 9; act = Clock_jump 1_000_000 };
    ]

let test_plan_roundtrip () =
  let s = Plan.to_string every_kind_plan in
  (match Plan.of_string s with
  | Ok p -> check bool "roundtrip equal" true (Plan.equal p every_kind_plan)
  | Error e -> Alcotest.fail e);
  (* comment and blank-line tolerance *)
  (match Plan.of_string ("# pthreads-fault plan v1\n\n# note\n@2 preempt\n")
   with
  | Ok p -> check bool "comments ok" true (Plan.equal p [ { at = 2; act = Preempt } ])
  | Error e -> Alcotest.fail e);
  (match Plan.of_string "@1 warp-core-breach" with
  | Ok _ -> Alcotest.fail "garbage must not parse"
  | Error _ -> ());
  match Plan.of_string "no header\n" with
  | Ok _ -> Alcotest.fail "missing header must not parse"
  | Error _ -> ()

let test_plan_random_deterministic () =
  let kinds = Plan.safe_kinds in
  let p1 = Plan.random ~seed:42 ~points:50 ~budget:6 kinds in
  let p2 = Plan.random ~seed:42 ~points:50 ~budget:6 kinds in
  check bool "same seed, same plan" true (Plan.equal p1 p2);
  check bool "within budget" true (Plan.length p1 <= 6);
  check bool "non-empty at this seed" true (Plan.length p1 > 0);
  List.iter
    (fun (i : Plan.injection) ->
      check bool "point in range" true (i.at >= 0 && i.at < 50))
    p1

(* ------------------------------------------------------------------ *)
(* Injection against correct code: the robust suite absorbs faults     *)
(* ------------------------------------------------------------------ *)

(* A correct predicate loop absorbs injected spurious wakeups. *)
let test_spurious_absorbed_by_predicate_loop () =
  let s = S.lost_wakeup ~fixed:true in
  let total = ref 0 in
  let _, points, _ = Soak.run_one ~mk:s.S.make [] in
  List.iter
    (fun seed ->
      let plan =
        Plan.random ~seed ~points ~budget:4
          { Plan.no_kinds with spurious = true }
      in
      let outcome, _, injected = Soak.run_one ~mk:s.S.make plan in
      total := !total + injected;
      match outcome with
      | None -> ()
      | Some k ->
          Alcotest.failf "fixed lost-wakeup failed under seed %d: %s" seed
            (E.failure_kind_to_string k))
    [ 1; 2; 3; 4; 5 ];
  check bool "some wakeups actually injected" true (!total > 0)

let test_soak_robust_suite_clean () =
  let config =
    { Soak.default_config with seeds = [ 1; 2 ]; budget = 4 }
  in
  let r = Soak.soak ~config Soak.default_suite in
  check int "no failures" 0 (List.length r.Soak.r_failures);
  check bool "faults were injected" true (r.Soak.r_injected > 0);
  let j = Soak.json_of_report r in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "json says clean" true (contains j "\"failures\": []")

(* ------------------------------------------------------------------ *)
(* The acceptance criterion: the seeded lost wakeup is found, shrunk,  *)
(* and replayed from its golden .fault file                            *)
(* ------------------------------------------------------------------ *)

let test_soak_finds_seeded_lost_wakeup () =
  let s = S.lost_wakeup_no_loop in
  let mk = s.S.make in
  let base, points, _ = Soak.run_one ~mk [] in
  check bool "clean run passes" true (base = None);
  let rec hunt seed =
    if seed > 20 then Alcotest.fail "no failing plan in 20 seeds"
    else
      let plan =
        Plan.random ~seed ~points ~budget:4
          { Plan.no_kinds with spurious = true }
      in
      match Soak.run_one ~mk plan with
      | Some _, _, _ -> plan
      | None, _, _ -> hunt (seed + 1)
  in
  let plan = hunt 1 in
  let shrunk, kind = Soak.shrink ~mk plan in
  check int "shrinks to a single injection" 1 (Plan.length shrunk);
  (match kind with
  | E.Bad_exit 1 -> ()
  | k ->
      Alcotest.failf "expected exit 1 (lost wakeup), got %s"
        (E.failure_kind_to_string k));
  (* the minimal plan is a spurious wakeup *)
  match shrunk with
  | [ { Plan.act = Plan.Spurious_wakeup _; _ } ] -> ()
  | _ -> Alcotest.fail "minimal plan is not a spurious wakeup"

let test_golden_fault_replays () =
  let text =
    In_channel.with_open_text (golden_path "no_predicate_loop.fault")
      In_channel.input_all
  in
  match Plan.of_string text with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      check bool "golden plan is minimal" true (Plan.length plan = 1);
      match Soak.run_one ~mk:S.lost_wakeup_no_loop.S.make plan with
      | Some (E.Bad_exit 1), _, injected ->
          check int "exactly one fault injected" 1 injected
      | Some k, _, _ ->
          Alcotest.failf "golden replay: expected exit 1, got %s"
            (E.failure_kind_to_string k)
      | None, _, _ ->
          Alcotest.fail
            "golden .fault file is stale: replay no longer fails \
             (regenerate with fault_demo --golden test/golden)")

(* ------------------------------------------------------------------ *)
(* EINTR from an injected trap fault                                   *)
(* ------------------------------------------------------------------ *)

let test_injected_eintr () =
  let got = ref None in
  let mk () =
    Pthread.make_proc (fun proc ->
        (* pass fault point 0 so the injector can arm the read *)
        Pthread.busy proc ~ns:1_000;
        let s1 = Flat.read proc ~latency_ns:1_000 in
        let e1 = (Engine.current proc).Types.errno in
        let s2 = Flat.read proc ~latency_ns:1_000 in
        got := Some (s1, e1, s2);
        0)
  in
  let plan = [ { Plan.at = 0; act = Plan.Trap_fault ("read", Errno.EINTR) } ] in
  let outcome, _, injected = Soak.run_one ~mk plan in
  check bool "process exits cleanly" true (outcome = None);
  check int "one trap fault fired" 1 injected;
  match !got with
  | Some (s1, e1, s2) ->
      check int "first read returns EINTR" Flat.eintr s1;
      check int "thread errno set" (Errno.to_int Errno.EINTR) e1;
      check int "second read succeeds (one-shot arming)" Flat.ok s2
  | None -> Alcotest.fail "program did not record its reads"

(* ------------------------------------------------------------------ *)
(* Satellite 3: timed-wait semantics against the virtual clock         *)
(* ------------------------------------------------------------------ *)

let test_wait_until_past_deadline () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         Mutex.lock proc m;
         (match Cond.wait_until proc c m ~deadline_ns:0 with
         | Cond.Timed_out -> ()
         | _ -> Alcotest.fail "past deadline must time out");
         (* the mutex was released and reacquired: we still own it *)
         Mutex.unlock proc m;
         0));
  ()

let test_clock_jump_times_out_flat_wait () =
  ignore
    (run_main (fun proc ->
         let _, m = Flat.mutex_init proc () in
         let _, c = Flat.cond_init proc () in
         let res = ref (-1) in
         (* higher priority: parks in the timed wait before main moves on *)
         let t =
           Pthread.create proc
             ~attr:(Attr.with_prio (Types.default_prio + 1) Attr.default)
             (fun () ->
               ignore (Flat.mutex_lock proc m);
               let deadline = Pthread.now proc + 1_000_000 in
               res := Flat.cond_timedwait proc c m ~deadline_ns:deadline;
               ignore (Flat.mutex_unlock proc m);
               0)
         in
         (* no signal ever comes; jump the clock past the deadline *)
         Engine.inject_clock_jump proc ~ns:5_000_000;
         (match Pthread.join proc t with
         | Types.Exited 0 -> ()
         | st -> Alcotest.failf "consumer: %a" Types.pp_exit_status st);
         check int "ETIMEDOUT" Flat.etimedout !res;
         0));
  ()

let test_wait_for_is_relative () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         let c = Cond.create proc () in
         let t0 = Pthread.now proc in
         Mutex.lock proc m;
         (match Cond.wait_for proc c m ~timeout_ns:100_000 with
         | Cond.Timed_out -> ()
         | _ -> Alcotest.fail "unsignaled wait_for must time out");
         Mutex.unlock proc m;
         check bool "waited at least the timeout" true
           (Pthread.now proc - t0 >= 100_000);
         0));
  ()

(* ------------------------------------------------------------------ *)
(* Injected cancellation: Table 1 discipline under fire                *)
(* ------------------------------------------------------------------ *)

(* Canceling a thread parked in Cond.wait without a cleanup handler leaks
   the reacquired mutex — the soak finds the paper's Table 1 pitfall. *)
let test_injected_cancel_finds_mutex_leak () =
  let s = S.lost_wakeup ~fixed:true in
  let mk = s.S.make in
  let _, points, _ = Soak.run_one ~mk [] in
  let rec hunt seed =
    if seed > 30 then None
    else
      let plan =
        Plan.random ~seed ~points ~budget:4
          { Plan.no_kinds with cancels = true }
      in
      match Soak.run_one ~mk plan with
      | Some _, _, _ -> Some plan
      | None, _, _ -> hunt (seed + 1)
  in
  match hunt 1 with
  | None -> Alcotest.fail "no injected cancellation bit within 30 seeds"
  | Some plan ->
      let shrunk, kind = Soak.shrink ~mk plan in
      check bool "shrunk to something" true (Plan.length shrunk >= 1);
      let ks = E.failure_kind_to_string kind in
      check bool ("failure is structural: " ^ ks) true
        (match kind with
        | E.Invariant_violated _ | E.Deadlocked _ | E.Bad_exit _ -> true
        | _ -> false)

(* The Table 1 state-cycling scenario holds no resources, so even the
   cancellation-enabled kinds must leave every run clean. *)
let test_cancel_states_robust () =
  let s = S.cancel_states in
  List.iter
    (fun seed ->
      let _, points, _ = Soak.run_one ~mk:s.S.make [] in
      let plan = Plan.random ~seed ~points ~budget:6 Plan.all_kinds in
      match Soak.run_one ~mk:s.S.make plan with
      | None, _, _ -> ()
      | Some k, _, _ ->
          Alcotest.failf "cancel-states failed under seed %d: %s" seed
            (E.failure_kind_to_string k))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Stats plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let test_faults_surface_in_stats () =
  let stats =
    run_stats (fun proc ->
        Engine.inject_clock_jump proc ~ns:1_000_000;
        Engine.inject_clock_jump proc ~ns:1_000_000;
        0)
  in
  check int "faults_injected" 2 stats.Engine.faults_injected

let suite =
  [
    ( "fault",
      [
        tc "errno round-trips" test_errno_roundtrip;
        tc "flat statuses are errnos on the wire" test_flat_constants_are_errnos;
        tc "misuse raises structured Error" test_structured_errors;
        tc "plan serialization round-trips" test_plan_roundtrip;
        tc "plan generation is seed-deterministic" test_plan_random_deterministic;
        tc "predicate loop absorbs spurious wakeups"
          test_spurious_absorbed_by_predicate_loop;
        tc "robust suite soaks clean" test_soak_robust_suite_clean;
        tc "soak finds the seeded lost wakeup" test_soak_finds_seeded_lost_wakeup;
        tc "golden .fault counterexample replays" test_golden_fault_replays;
        tc "injected trap fault surfaces as EINTR" test_injected_eintr;
        tc "wait_until with past deadline times out" test_wait_until_past_deadline;
        tc "clock jump times out a flat timed wait"
          test_clock_jump_times_out_flat_wait;
        tc "wait_for is relative to the call" test_wait_for_is_relative;
        tc "injected cancel exposes the Table 1 leak"
          test_injected_cancel_finds_mutex_leak;
        tc "state-cycling worker survives all kinds" test_cancel_states_robust;
        tc "injections surface in engine stats" test_faults_surface_in_stats;
      ] );
  ]
