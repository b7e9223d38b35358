(* Probabilistic sampling (Check.Sample): PCT and uniform random walks,
   cross-validated against the DPOR explorer — every bug the exhaustive
   mode finds, the sampler must re-find under pinned seeds, and bug-free
   scenarios must stay quiet under a sampling budget.  Plus direct unit
   tests of the shrinking passes both modes share. *)

open Tu
module E = Check.Explore
module Sm = Check.Sample
module S = Check.Scenarios

let seed = Tu.seed_of "sample"

(* sampling needs no sleep sets and, for kind comparability with DPOR
   (which runs without the monitor), no sanitizer: on racy_counter the
   monitor would flag the race before the lost update manifests *)
let plain ~runs = { Sm.default_config with runs; sanitize = false }

let kind_name = function
  | E.Deadlocked _ -> "deadlock"
  | E.Killed _ -> "signal"
  | E.Invariant_violated _ -> "invariant"
  | E.Main_raised _ -> "raise"
  | E.Bad_exit _ -> "exit"

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* The buggy half of the catalogue, with the failure class DPOR finds.
   PCT must re-find the same class within its budget. *)
let buggy : (S.t * (E.failure_kind -> bool) * string) list =
  [
    ( S.deadlock_ab,
      (function E.Deadlocked _ -> true | _ -> false),
      "a deadlock" );
    ( S.racy_counter,
      (function E.Bad_exit 1 -> true | _ -> false),
      "a lost update (exit 1)" );
    ( S.lost_wakeup ~fixed:false,
      (function E.Deadlocked m -> contains m "blocked-on-cond" | _ -> false),
      "a lost-wakeup deadlock" );
    ( S.table4 ~mode:Pthreads.Types.Stack_pop,
      (function E.Invariant_violated m -> contains m "inheritance" | _ -> false),
      "the Table 4 inheritance violation" );
    ( S.cancel_cond_wait ~with_cleanup:false,
      (function
        | E.Invariant_violated m -> contains m "leaked" || contains m "still locked"
        | _ -> false),
      "the leaked mutex" );
  ]

(* scenarios with no reachable failure; the second list is additionally
   clean under the sanitizer (mirrors test_sanitize's clean catalogue) *)
let clean_plain =
  [
    S.table4 ~mode:Pthreads.Types.Recompute;
    S.cancel_states;
    S.lost_wakeup_no_loop;
  ]

let clean_sanitized =
  [
    S.ordered_ab;
    S.micro_two;
    S.three_two;
    S.lost_wakeup ~fixed:true;
    S.ceiling_nested;
    S.timed_consumer;
    S.cancel_cond_wait ~with_cleanup:true;
  ]

(* -------------------------------------------------------------------- *)

let test_cross_validation () =
  List.iter
    (fun ((s : S.t), classify, what) ->
      (* the exhaustive verdict first... *)
      let dpor =
        match (E.run s.S.make).failure with
        | Some f -> f
        | None -> Alcotest.failf "%s: DPOR found nothing" s.S.name
      in
      if not (classify dpor.E.kind) then
        Alcotest.failf "%s: DPOR found %s, not %s" s.S.name
          (E.failure_kind_to_string dpor.E.kind)
          what;
      (* ...then PCT must re-find the same class under the pinned seed *)
      let r =
        Sm.run ~config:(plain ~runs:4000) ~method_:(Sm.Pct { depth = 3 }) ~seed
          s.S.make
      in
      match r.Sm.s_failure with
      | None ->
          Alcotest.failf "%s: PCT missed %s in %d runs [seed %#x]" s.S.name
            what r.Sm.s_runs seed
      | Some f ->
          if not (classify f.E.kind) then
            Alcotest.failf "%s: PCT found %s, DPOR found %s [seed %#x]"
              s.S.name
              (E.failure_kind_to_string f.E.kind)
              (E.failure_kind_to_string dpor.E.kind)
              seed;
          (* the shrunk counterexample replays byte-for-byte *)
          let rep = Check.Replay.run s.S.make f.E.schedule in
          check bool
            (s.S.name ^ " counterexample replays faithfully")
            true
            (rep.Check.Replay.diverged_at = None
            && match rep.Check.Replay.outcome with
               | Some k -> kind_name k = kind_name f.E.kind
               | None -> false))
    buggy

let test_uniform_finds_shallow_bugs () =
  List.iter
    (fun ((s : S.t), classify, what) ->
      let r =
        Sm.run ~config:(plain ~runs:2000) ~method_:Sm.Uniform ~seed s.S.make
      in
      match r.Sm.s_failure with
      | None -> Alcotest.failf "%s: uniform walk missed %s" s.S.name what
      | Some f ->
          check bool (s.S.name ^ " class matches") true (classify f.E.kind))
    [ List.nth buggy 0; List.nth buggy 1 ]

let test_clean_scenarios_quiet () =
  let budget = { Sm.default_config with runs = 150 } in
  List.iter
    (fun ((s : S.t), sanitize) ->
      List.iter
        (fun method_ ->
          let r =
            Sm.run ~config:{ budget with sanitize } ~method_ ~seed s.S.make
          in
          (match r.Sm.s_failure with
          | Some f ->
              Alcotest.failf "%s under %s: spurious %s [seed %#x]" s.S.name
                (Sm.method_to_string method_)
                (E.failure_kind_to_string f.E.kind)
                seed
          | None -> ());
          check int
            (s.S.name ^ " ran the full budget")
            budget.Sm.runs r.Sm.s_runs)
        [ Sm.Pct { depth = 3 }; Sm.Uniform ])
    (List.map (fun s -> (s, false)) clean_plain
    @ List.map (fun s -> (s, true)) clean_sanitized)

let test_seed_reproducibility () =
  (* byte-for-byte: the whole report, counterexample included, is a pure
     function of (scenario, method, seed) *)
  let go () =
    Sm.run ~config:(plain ~runs:4000) ~method_:(Sm.Pct { depth = 3 }) ~seed
      S.deadlock_ab.S.make
  in
  let a = go () and b = go () in
  check int "same failing run index"
    (Option.get a.Sm.s_failure_index)
    (Option.get b.Sm.s_failure_index);
  check int "same total steps" a.Sm.s_steps b.Sm.s_steps;
  let sa = (Option.get a.Sm.s_failure).E.schedule
  and sb = (Option.get b.Sm.s_failure).E.schedule in
  check bool "identical shrunk schedule" true (Check.Schedule.equal sa sb);
  check bool "identical first schedule" true
    (Check.Schedule.equal (Option.get a.Sm.s_failure).E.first_schedule
       (Option.get b.Sm.s_failure).E.first_schedule)

let test_failure_index_rederives () =
  (* run i draws from Rng.fork(seed, i) alone, so truncating the budget to
     i+1 runs must rediscover the identical failure *)
  let full =
    Sm.run ~config:(plain ~runs:4000) ~method_:(Sm.Pct { depth = 3 }) ~seed
      S.deadlock_ab.S.make
  in
  let i = Option.get full.Sm.s_failure_index in
  let again =
    Sm.run
      ~config:(plain ~runs:(i + 1))
      ~method_:(Sm.Pct { depth = 3 })
      ~seed S.deadlock_ab.S.make
  in
  check int "same index" i (Option.get again.Sm.s_failure_index);
  check bool "same schedule" true
    (Check.Schedule.equal
       (Option.get full.Sm.s_failure).E.schedule
       (Option.get again.Sm.s_failure).E.schedule)

let test_pct_bound () =
  let r =
    Sm.run
      ~config:{ (plain ~runs:50) with sanitize = false }
      ~method_:(Sm.Pct { depth = 2 })
      ~seed S.three_two.S.make
  in
  match r.Sm.s_bound with
  | None -> Alcotest.fail "PCT must surface its bound"
  | Some b ->
      check int "targeted depth" 2 b.Sm.b_depth;
      check bool "n from the workload" true (b.Sm.b_threads >= 3);
      check bool "k from the workload" true (b.Sm.b_steps >= b.Sm.b_threads);
      check bool "0 < p <= 1" true (b.Sm.b_single > 0.0 && b.Sm.b_single <= 1.0);
      check bool "cumulative >= single" true
        (b.Sm.b_cumulative >= b.Sm.b_single);
      check bool "uniform has no bound" true
        ((Sm.run ~config:(plain ~runs:10) ~method_:Sm.Uniform ~seed
            S.micro_two.S.make)
           .Sm.s_bound
        = None)

let test_sanitizer_findings_count () =
  (* with the monitor attached, racy_counter fails on the very first runs:
     either the lost update manifests (exit 1) or the race is predicted *)
  let r =
    Sm.run
      ~config:{ Sm.default_config with runs = 50 }
      ~method_:Sm.Uniform ~seed S.racy_counter.S.make
  in
  match r.Sm.s_failure with
  | None -> Alcotest.fail "sanitized sampling missed the racy counter"
  | Some f -> (
      match f.E.kind with
      | E.Bad_exit 1 -> ()
      | E.Invariant_violated m ->
          check bool "finding attributed to the sanitizer" true
            (contains m "sanitizer")
      | k ->
          Alcotest.failf "unexpected kind %s" (E.failure_kind_to_string k))

(* -------------------------------------------------------------------- *)
(* Shrinker unit tests (Explore.Shrink over synthetic predicates)        *)
(* -------------------------------------------------------------------- *)

let remove_at a i =
  Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1))

let one_minimal ~fails a =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if fails (remove_at a i) then ok := false
  done;
  !ok

let test_shrink_prefix_search () =
  (* monotone predicate: shortest failing prefix found exactly *)
  let fails a = Array.length a >= 5 in
  let full = Array.init 12 (fun i -> i) in
  check int "shortest failing prefix" 5
    (Array.length (E.Shrink.prefix_search ~fails full));
  (* non-monotone: binary search may land wrong; verified fallback keeps
     the result failing *)
  let fails a = Array.length a = 6 || Array.length a = 3 in
  let got = E.Shrink.prefix_search ~fails (Array.init 6 (fun i -> i)) in
  check bool "non-monotone result still fails" true (fails got);
  (* empty input passes through *)
  check int "empty" 0
    (Array.length (E.Shrink.prefix_search ~fails:(fun _ -> true) [||]))

let test_shrink_splice () =
  let mem x a = Array.exists (( = ) x) a in
  let fails a = mem 3 a && mem 7 a in
  let got = E.Shrink.minimize ~fails [| 1; 3; 5; 7; 9; 3 |] in
  check bool "kept only the needed elements, in order" true
    (Array.to_list got = [ 3; 7 ]);
  check bool "still fails" true (fails got);
  check bool "1-minimal" true (one_minimal ~fails got)

let test_shrink_count_predicate () =
  (* at least three 2s: splice must strip everything else *)
  let fails a = Array.fold_left (fun n x -> if x = 2 then n + 1 else n) 0 a >= 3 in
  let got = E.Shrink.minimize ~fails [| 0; 2; 1; 2; 3; 2; 2; 1 |] in
  check bool "exactly the witnesses remain" true
    (Array.to_list got = [ 2; 2; 2 ]);
  check bool "1-minimal" true (one_minimal ~fails got)

let shrink_qcheck =
  (* generic contract on a random instance: whenever the full list fails,
     the minimized list still fails and is 1-minimal *)
  Tu.qcheck ~count:300 ~seed_key:"shrink" "minimize: fails and 1-minimal"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 25) (int_range 0 3))
        (int_range 1 4))
    (fun (l, need) ->
      let full = Array.of_list l in
      let fails a =
        Array.fold_left (fun n x -> if x = 2 then n + 1 else n) 0 a >= need
      in
      if not (fails full) then true
      else
        let m = E.Shrink.minimize ~fails full in
        fails m && one_minimal ~fails m)

(* -------------------------------------------------------------------- *)

let test_soak_pct_mode () =
  (* the schedule dimension the fault soak leaves to the sampler: PCT
     finds the unfixed lost wakeup, which no fault plan is needed for, as
     a replayable schedule (sanitizer off, as in the soak's clean
     calibration) *)
  let r =
    Sm.run ~config:(plain ~runs:1000) ~method_:(Sm.Pct { depth = 3 }) ~seed
      (S.lost_wakeup ~fixed:false).S.make
  in
  match r.Sm.s_failure with
  | None -> Alcotest.fail "PCT missed the lost wakeup"
  | Some f ->
      (match f.E.kind with
      | E.Deadlocked _ -> ()
      | k ->
          Alcotest.failf "expected a deadlock, got %s"
            (E.failure_kind_to_string k));
      let rep = Check.Replay.run (S.lost_wakeup ~fixed:false).S.make f.E.schedule in
      check bool "sampled schedule replays" true
        (rep.Check.Replay.diverged_at = None
        && match rep.Check.Replay.outcome with
           | Some (E.Deadlocked _) -> true
           | _ -> false)

let suite =
  [
    ( "sample",
      [
        tc "cross-validation: PCT re-finds every DPOR bug"
          test_cross_validation;
        tc "uniform walk finds shallow bugs" test_uniform_finds_shallow_bugs;
        tc "clean scenarios: zero findings" test_clean_scenarios_quiet;
        tc "pinned seed reproduces byte-for-byte" test_seed_reproducibility;
        tc "failure index re-derives the stream" test_failure_index_rederives;
        tc "PCT bound surfaced and sane" test_pct_bound;
        tc "sanitizer findings count as failures"
          test_sanitizer_findings_count;
        tc "fault soak: PCT schedule dimension" test_soak_pct_mode;
        tc "shrink: prefix search" test_shrink_prefix_search;
        tc "shrink: splice to 1-minimal" test_shrink_splice;
        tc "shrink: count predicate" test_shrink_count_predicate;
        shrink_qcheck;
      ] );
  ]
