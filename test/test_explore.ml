(* The schedule explorer (lib/check): systematic interleaving coverage with
   DPOR pruning, minimal replayable counterexamples, and the paper's bug
   catalogue (lock-order deadlock, lost wakeup, Table 4 protocol mixing,
   Table 1 cancellation during Cond.wait) reproduced as *found* bugs. *)

open Tu
open Pthreads
module E = Check.Explore
module S = Check.Scenarios

let found (r : E.result) =
  match r.failure with
  | Some f -> f
  | None -> Alcotest.fail "expected the explorer to find a failure"

let safe name (r : E.result) =
  (match r.failure with
  | Some f ->
      Alcotest.failf "%s should be safe, found %s" name
        (E.failure_kind_to_string f.kind)
  | None -> ());
  check bool (name ^ " explored exhaustively") true r.stats.complete

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* -------------------------------------------------------------------- *)

let test_deadlock_found_and_replayed () =
  let f = found (E.run S.deadlock_ab.make) in
  (match f.kind with
  | E.Deadlocked _ -> ()
  | k -> Alcotest.failf "expected a deadlock, got %s" (E.failure_kind_to_string k));
  check bool "shrunk is no longer than the first witness" true
    (Check.Schedule.length f.schedule
    <= Check.Schedule.length f.first_schedule);
  (* determinism: two replays of the minimal schedule agree exactly *)
  let r1 = Check.Replay.run S.deadlock_ab.make f.schedule in
  let r2 = Check.Replay.run S.deadlock_ab.make f.schedule in
  (match (r1.outcome, r2.outcome) with
  | Some (E.Deadlocked a), Some (E.Deadlocked b) ->
      check string "same deadlock both times" a b
  | _ -> Alcotest.fail "replay did not reproduce the deadlock");
  check int "same step count" r1.steps r2.steps;
  check bool "no divergence" true (r1.diverged_at = None && r2.diverged_at = None)

let test_ordered_safe () = safe "ordered-ab" (E.run S.ordered_ab.make)

let test_three_two_exhaustive () =
  (* the acceptance program: 3 threads over 2 mutexes, exhausted with DPOR *)
  let r = E.run S.three_two.make in
  safe "three-two" r;
  check bool "DPOR actually pruned" true (r.stats.pruned > 0)

let test_racy_counter_found () =
  let f = found (E.run S.racy_counter.make) in
  match f.kind with
  | E.Bad_exit 1 -> ()
  | k -> Alcotest.failf "expected lost update (exit 1), got %s"
           (E.failure_kind_to_string k)

let test_lost_wakeup_found () =
  let f = found (E.run (S.lost_wakeup ~fixed:false).make) in
  match f.kind with
  | E.Deadlocked msg ->
      check bool "consumer stuck on the condition" true
        (contains msg "blocked-on-cond")
  | k -> Alcotest.failf "expected a lost-wakeup deadlock, got %s"
           (E.failure_kind_to_string k)

let test_lost_wakeup_fixed_safe () =
  safe "lost-wakeup-fixed" (E.run (S.lost_wakeup ~fixed:true).make)

let test_table4_stack_pop_found () =
  (* the paper's Table 4 divergence, rediscovered as a counterexample *)
  let f = found (E.run (S.table4 ~mode:Types.Stack_pop).make) in
  match f.kind with
  | E.Invariant_violated msg ->
      check bool "names the inheritance discipline" true
        (contains msg "inheritance")
  | k -> Alcotest.failf "expected an invariant violation, got %s"
           (E.failure_kind_to_string k)

let test_table4_recompute_safe () =
  safe "table4-recompute" (E.run (S.table4 ~mode:Types.Recompute).make)

let test_ceiling_nested_safe () =
  safe "ceiling-nested" (E.run S.ceiling_nested.make)

(* Satellite: exhaustive cancellation x Cond.wait (paper Table 1).  With a
   cleanup handler no schedule leaks the mutex; without one, the canceled
   thread keeps the reacquired mutex and the explorer pins the leak. *)
let test_cancel_cond_wait_clean () =
  safe "cancel-cond-wait" (E.run (S.cancel_cond_wait ~with_cleanup:true).make)

let test_cancel_cond_wait_leak_found () =
  let f = found (E.run (S.cancel_cond_wait ~with_cleanup:false).make) in
  match f.kind with
  | E.Invariant_violated msg ->
      check bool "reports the leaked mutex" true
        (contains msg "leaked" || contains msg "still locked")
  | k -> Alcotest.failf "expected a leaked-mutex violation, got %s"
           (E.failure_kind_to_string k)

(* -------------------------------------------------------------------- *)

(* Exact reduction measurement on a 2-thread program: full enumeration
   (DPOR and sleep sets off) visits every interleaving; DPOR must agree on
   the verdict while running strictly fewer schedules. *)
let test_dpor_reduction () =
  let full =
    E.run ~config:{ E.default_config with dpor = false }
      S.micro_two.make
  in
  let dpor = E.run S.micro_two.make in
  safe "micro (full enumeration)" full;
  safe "micro (DPOR)" dpor;
  check bool "full enumeration is not trivial" true (full.stats.runs > 10);
  check bool
    (Printf.sprintf "DPOR explores fewer schedules (%d < %d)" dpor.stats.runs
       full.stats.runs)
    true
    (dpor.stats.runs < full.stats.runs)

(* A uniform random walk without the monitor, whose lock-order
   prediction would report the cycle before any sampled run deadlocks. *)
let test_sampling_finds_deadlock () =
  let config = { Check.Sample.default_config with runs = 200; sanitize = false } in
  let r =
    Check.Sample.run ~config ~method_:Check.Sample.Uniform ~seed:7
      S.deadlock_ab.make
  in
  let f =
    match r.Check.Sample.s_failure with
    | Some f -> f
    | None -> Alcotest.fail "expected the sampler to find the deadlock"
  in
  let rep = Check.Replay.run S.deadlock_ab.make f.schedule in
  match rep.outcome with
  | Some (E.Deadlocked _) -> check bool "replay faithful" true (rep.diverged_at = None)
  | _ -> Alcotest.fail "sampled counterexample did not replay"

(* -------------------------------------------------------------------- *)
(* Parallel DPOR (run_parallel): determinism across domain counts        *)
(* -------------------------------------------------------------------- *)

(* Canonical schedule set of one exploration: every executed run's
   complete decision list, sorted — traversal order must not matter. *)
let explored ~domains (s : S.t) =
  let acc = ref [] in
  let r = E.run_parallel ~domains ~record:(fun sc -> acc := sc :: !acc) s.S.make in
  let set = List.sort compare (List.map Array.to_list !acc) in
  (r, set)

let kind_tag = function
  | E.Deadlocked m -> "deadlock:" ^ m
  | E.Killed s -> "signal:" ^ string_of_int s
  | E.Invariant_violated m -> "invariant:" ^ m
  | E.Main_raised m -> "raise:" ^ m
  | E.Bad_exit n -> "exit:" ^ string_of_int n

let test_parallel_deterministic () =
  (* the full catalogue: schedule set, verdict and stats must be identical
     for 1, 2 and 4 domains *)
  List.iter
    (fun (s : S.t) ->
      let r1, set1 = explored ~domains:1 s in
      let r2, set2 = explored ~domains:2 s in
      let r4, set4 = explored ~domains:4 s in
      check bool (s.S.name ^ ": schedule sets 1=2") true (set1 = set2);
      check bool (s.S.name ^ ": schedule sets 1=4") true (set1 = set4);
      check int (s.S.name ^ ": runs agree") r1.E.stats.runs r2.E.stats.runs;
      check int (s.S.name ^ ": steps agree") r1.E.stats.steps r4.E.stats.steps;
      let cx r =
        match r.E.failure with
        | Some f -> Some (Array.to_list f.schedule, kind_tag f.kind)
        | None -> None
      in
      check bool (s.S.name ^ ": counterexample 1=2") true (cx r1 = cx r2);
      check bool (s.S.name ^ ": counterexample 1=4") true (cx r1 = cx r4))
    S.all

let test_parallel_agrees_with_sequential () =
  (* same verdicts as the depth-first driver on both halves of the
     catalogue (the traversal differs, so only verdicts are comparable) *)
  let f = found (E.run_parallel ~domains:2 S.deadlock_ab.make) in
  (match f.kind with
  | E.Deadlocked _ -> ()
  | k -> Alcotest.failf "expected a deadlock, got %s" (E.failure_kind_to_string k));
  let rep = Check.Replay.run S.deadlock_ab.make f.schedule in
  (match rep.outcome with
  | Some (E.Deadlocked _) ->
      check bool "parallel counterexample replays" true (rep.diverged_at = None)
  | _ -> Alcotest.fail "parallel counterexample did not replay");
  let r = E.run_parallel ~domains:2 S.three_two.make in
  safe "three-two (parallel)" r;
  check bool "no exhaustion report on a complete run" true
    (r.stats.exhausted = None);
  check bool "parallel sleep sets prune too" true (r.stats.pruned > 0)

let test_parallel_rejects_bad_domains () =
  match E.run_parallel ~domains:0 S.micro_two.make with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains = 0 must be rejected"

(* Differential soundness: all steps within a Mazurkiewicz trace class
   commute, so a sound reduction must reach exactly the final states full
   enumeration reaches.  This catches pruning bugs that verdict agreement
   on the catalogue cannot — e.g. two sibling subtrees sleeping each
   other, which silently drops a whole trace class from both. *)
let test_parallel_covers_all_final_states () =
  let finals : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* seeded 2-thread programs whose every write is non-commutative, so a
     missed interleaving class shows up as a missing final state *)
  let program seed =
    let master = Vm.Rng.create seed in
    let script =
      Array.init 2 (fun _ ->
          Array.init 2 (fun _ ->
              ( Vm.Rng.int master 4,
                Vm.Rng.int master 2,
                Vm.Rng.int master 2,
                1 + Vm.Rng.int master 7 )))
    in
    fun proc ->
      let m =
        [|
          Mutex.create proc ~name:"m0" (); Mutex.create proc ~name:"m1" ();
        |]
      in
      let v = [| ref 1; ref 1 |] in
      let op tid (kind, mi, vi, k) =
        match kind with
        | 0 ->
            Mutex.lock proc m.(mi);
            E.touch proc vi;
            v.(vi) := (!(v.(vi)) * 3) + k + tid;
            Mutex.unlock proc m.(mi)
        | 1 ->
            E.touch proc vi;
            v.(vi) := (!(v.(vi)) * 5) + k
        | 2 ->
            E.touch_read proc vi;
            let x = !(v.(vi)) in
            E.touch proc (1 - vi);
            v.(1 - vi) := (!(v.(1 - vi)) * 7) + (x mod 11)
        | _ ->
            Mutex.lock proc m.(mi);
            Mutex.unlock proc m.(mi)
      in
      let ts =
        Array.to_list
          (Array.mapi
             (fun tid ops ->
               Pthread.create proc (fun () ->
                   Array.iter (op (tid + 1)) ops;
                   0))
             script)
      in
      List.iter (fun t -> ignore (Pthread.join proc t)) ts;
      Hashtbl.replace finals (Hashtbl.hash (!(v.(0)), !(v.(1)))) ();
      0
  in
  let collect mode mk =
    Hashtbl.reset finals;
    (* full enumeration of a few seeds tops 100k runs; give it room *)
    let cfg = { E.default_config with max_runs = 500_000 } in
    let r =
      match mode with
      | `Full -> E.run ~config:{ cfg with dpor = false } mk
      | `Seq -> E.run ~config:cfg mk
      | `Par -> E.run_parallel ~config:cfg ~domains:2 mk
    in
    check bool "exploration completed" true r.E.stats.complete;
    List.sort_uniq compare (Hashtbl.fold (fun k () acc -> k :: acc) finals [])
  in
  for seed = 1 to 15 do
    let body = program seed in
    let mk () = Pthread.make_proc body in
    let full = collect `Full mk in
    let seq = collect `Seq mk in
    let par = collect `Par mk in
    check bool
      (Printf.sprintf "seed %d: sequential DPOR reaches all final states"
         seed)
      true (seq = full);
    check bool
      (Printf.sprintf "seed %d: parallel DPOR reaches all final states" seed)
      true (par = full)
  done

(* -------------------------------------------------------------------- *)
(* DPOR over Net: pipes are engine I/O waits with footprint keys         *)
(* -------------------------------------------------------------------- *)

(* A connected pair on a fresh listener (no blocking: connect queues the
   server end before accept takes it). *)
let net_pair proc =
  let l = Net.listen proc ~port:0 () in
  let c = Net.connect proc ~port:(Net.port proc l) in
  (l, c, Net.accept proc l)

(* Main and one thread each write one byte into the same pipe, then each
   reads one byte back out of it: who reads whose byte depends on the
   interleaving, and the reduction must reach every outcome that full
   enumeration reaches. *)
let test_dpor_net_pipe_differential () =
  let finals = Hashtbl.create 8 in
  let mk () =
    Pthread.make_proc (fun proc ->
        let _, c, s = net_pair proc in
        let one ch =
          Net.write_all proc c (Bytes.make 1 ch) ~pos:0 ~len:1;
          let b = Bytes.create 1 in
          ignore (Net.read proc s b ~pos:0 ~len:1 : int);
          Bytes.get b 0
        in
        let got = ref ' ' in
        let t = Pthread.create_unit proc (fun () -> got := one 't') in
        let mine = one 'm' in
        ignore (Pthread.join proc t);
        Hashtbl.replace finals (mine, !got) ();
        0)
  in
  let collect config =
    Hashtbl.reset finals;
    let r = E.run ~config mk in
    safe "pipe differential" r;
    (r.stats.runs, List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) finals []))
  in
  let full_runs, full =
    collect { E.default_config with dpor = false }
  in
  let dpor_runs, dpor = collect E.default_config in
  check bool "both byte assignments reachable" true (List.length full = 2);
  check bool "DPOR reaches every final state of full enumeration" true
    (dpor = full);
  check bool
    (Printf.sprintf "DPOR explores fewer schedules (%d < %d)" dpor_runs full_runs)
    true (dpor_runs < full_runs)

(* One client, two messages, through a server thread running the usual
   echo loop: small enough to exhaust, with every pipe and the listener in
   the footprints. *)
let echo_2msg () =
  Pthread.make_proc (fun proc ->
      let l, c, s = net_pair proc in
      let server =
        Pthread.create_unit proc (fun () ->
            let buf = Bytes.create 8 in
            let rec loop () =
              let n = Net.read proc s buf ~pos:0 ~len:8 in
              if n > 0 then begin
                Net.write_all proc s buf ~pos:0 ~len:n;
                loop ()
              end
            in
            loop ();
            Net.close proc s)
      in
      let ok = ref true in
      List.iter
        (fun msg ->
          let b = Bytes.of_string msg in
          Net.write_all proc c b ~pos:0 ~len:(Bytes.length b);
          let back = Bytes.create (Bytes.length b) in
          let rec fill pos =
            if pos < Bytes.length back then begin
              let n = Net.read proc c back ~pos ~len:(Bytes.length back - pos) in
              if n = 0 then ok := false else fill (pos + n)
            end
          in
          fill 0;
          if not (Bytes.equal back b) then ok := false)
        [ "ping"; "pong" ];
      Net.close proc c;
      ignore (Pthread.join proc server);
      Net.close_listener proc l;
      if !ok then 0 else 1)

let test_dpor_net_echo_exhausts () =
  let r = E.run ~config:{ E.default_config with max_runs = 5_000 } echo_2msg in
  safe "1-client 2-message echo" r;
  check bool
    (Printf.sprintf "exhausted within 5000 runs (%d)" r.stats.runs)
    true (r.stats.runs <= 5_000)

(* Satellite fix: a truncated exploration reports what was left, instead
   of just clearing [complete]. *)
let test_budget_exhaustion_reported () =
  let cfg = { E.default_config with max_runs = 2 } in
  List.iter
    (fun (what, (r : E.result)) ->
      check bool (what ^ ": not complete") false r.stats.complete;
      match r.stats.exhausted with
      | None -> Alcotest.failf "%s: truncation must be reported" what
      | Some e ->
          check bool
            (what ^ ": frontier remaining")
            true (e.E.ex_frontier > 0))
    [
      ("sequential", E.run ~config:cfg S.three_two.make);
      ("parallel", E.run_parallel ~config:cfg ~domains:2 S.three_two.make);
    ];
  (* a zero budget runs nothing and still reports the unexplored root *)
  let r0 = E.run ~config:{ cfg with max_runs = 0 } S.micro_two.make in
  check int "zero budget runs nothing" 0 r0.stats.runs;
  check bool "zero budget is exhausted" true (r0.stats.exhausted <> None)

let test_step_budget_cut_reported () =
  let cfg = { E.default_config with max_steps = 3 } in
  let sampled =
    Check.Sample.run
      ~config:{ Check.Sample.runs = 5; max_steps = 3; sanitize = false }
      ~method_:Check.Sample.Uniform ~seed:7 S.three_two.make
  in
  check bool "sampling: cut runs counted" true
    (sampled.Check.Sample.s_cut_runs > 0);
  List.iter
    (fun (what, (r : E.result)) ->
      check bool (what ^ ": not complete") false r.stats.complete;
      match r.stats.exhausted with
      | None -> Alcotest.failf "%s: cut runs must be reported" what
      | Some e ->
          check bool (what ^ ": cut runs counted") true (e.E.ex_cut_runs > 0))
    [
      ("sequential", E.run ~config:cfg S.three_two.make);
      ("parallel", E.run_parallel ~config:cfg ~domains:2 S.three_two.make);
    ]

(* -------------------------------------------------------------------- *)

let schedule = Alcotest.testable Check.Schedule.pp Check.Schedule.equal

let test_schedule_roundtrip () =
  let s = Check.Schedule.of_list [ 0; 0; 1; 2; 0; 17; 3 ] in
  (match Check.Schedule.of_string (Check.Schedule.to_string s) with
  | Ok s' -> check schedule "roundtrip" s s'
  | Error e -> Alcotest.fail e);
  (match
     Check.Schedule.of_string
       "\n# pthreads-explore schedule v1\n0 1 2\n# trailing comment\n3 4\n"
   with
  | Ok s' -> check schedule "comments ignored" (Check.Schedule.of_list [ 0; 1; 2; 3; 4 ]) s'
  | Error e -> Alcotest.fail e);
  match Check.Schedule.of_string "0 1 2\n" with
  | Ok _ -> Alcotest.fail "missing header must be rejected"
  | Error _ -> ()

let suite =
  [
    ( "explore",
      [
        tc "deadlock found, shrunk, replayed" test_deadlock_found_and_replayed;
        tc "ordered locking exhaustively safe" test_ordered_safe;
        tc "3 threads / 2 mutexes exhausted" test_three_two_exhaustive;
        tc "racy counter: lost update found" test_racy_counter_found;
        tc "lost wakeup found" test_lost_wakeup_found;
        tc "lost wakeup fixed: safe" test_lost_wakeup_fixed_safe;
        tc "Table 4 stack-pop violation found" test_table4_stack_pop_found;
        tc "Table 4 recompute: safe" test_table4_recompute_safe;
        tc "nested ceilings: safe" test_ceiling_nested_safe;
        tc "cancel in Cond.wait: cleanup never leaks" test_cancel_cond_wait_clean;
        tc "cancel in Cond.wait: leak found" test_cancel_cond_wait_leak_found;
        tc "DPOR beats full enumeration" test_dpor_reduction;
        tc "random sampling + replay" test_sampling_finds_deadlock;
        tc "schedule text roundtrip" test_schedule_roundtrip;
        tc "parallel DPOR deterministic across domains"
          test_parallel_deterministic;
        tc "parallel agrees with sequential verdicts"
          test_parallel_agrees_with_sequential;
        tc "parallel rejects domains < 1" test_parallel_rejects_bad_domains;
        tc "reduction reaches every final state (differential)"
          test_parallel_covers_all_final_states;
        tc "Net pipe: DPOR reaches every final state (differential)"
          test_dpor_net_pipe_differential;
        tc "Net echo, 1 client x 2 messages: exhaustive" test_dpor_net_echo_exhausts;
        tc "run budget exhaustion is structured" test_budget_exhaustion_reported;
        tc "step budget cuts are counted" test_step_budget_cut_reported;
      ] );
  ]
