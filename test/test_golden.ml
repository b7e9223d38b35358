(* The Table 2 contract, as a regression net: every metric with a published
   number must stay within 15% of it on both machine profiles.  Everything
   is deterministic, so a failure here means a code change moved the
   evaluation, not noise. *)

open Tu
module Cost_model = Vm.Cost_model

let check_row profile published measured metric =
  match published with
  | None -> ()
  | Some paper ->
      let dev = abs_float (measured -. paper) /. paper in
      check bool
        (Printf.sprintf "%s [%s]: %.1f vs paper %.1f (%.0f%%)" metric profile
           measured paper (100.0 *. dev))
        true (dev <= 0.15)

let test_table2_ipx () =
  List.iter
    (fun (r : Metrics.row) ->
      check_row "IPX" r.paper_ipx (r.measure Cost_model.sparc_ipx) r.metric)
    Metrics.rows

let test_table2_1plus () =
  List.iter
    (fun (r : Metrics.row) ->
      check_row "1+" r.paper_1plus (r.measure Cost_model.sparc_1plus) r.metric)
    Metrics.rows

let test_deterministic_measures () =
  (* the same metric measured twice is identical to the bit *)
  List.iter
    (fun (r : Metrics.row) ->
      check (Alcotest.float 0.0) ("stable: " ^ r.metric)
        (r.measure Cost_model.sparc_ipx)
        (r.measure Cost_model.sparc_ipx))
    Metrics.rows

(* Golden counterexamples: schedules the explorer once found, committed as
   .sched files (regenerate with `explore_demo --golden test/golden`).  A
   replay must reproduce the recorded failure without diverging — if it
   diverges, the library's scheduling-point structure changed and the file
   is stale. *)

let replay_golden file (scenario : Check.Scenarios.t) expect =
  match Check.Replay.of_file scenario.make (golden_path file) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      (match r.diverged_at with
      | None -> ()
      | Some k ->
          Alcotest.failf "%s is stale: replay diverged at decision %d" file k);
      (match r.outcome with
      | Some kind -> expect kind
      | None -> Alcotest.failf "%s replayed without failing" file)

let test_golden_table4 () =
  replay_golden "table4_mixed.sched"
    (Check.Scenarios.table4 ~mode:Pthreads.Types.Stack_pop)
    (function
      | Check.Explore.Invariant_violated _ -> ()
      | k ->
          Alcotest.failf "expected the Table 4 violation, got %s"
            (Check.Explore.failure_kind_to_string k))

let test_golden_lost_wakeup () =
  replay_golden "lost_wakeup.sched"
    (Check.Scenarios.lost_wakeup ~fixed:false)
    (function
      | Check.Explore.Deadlocked _ -> ()
      | k ->
          Alcotest.failf "expected the lost-wakeup deadlock, got %s"
            (Check.Explore.failure_kind_to_string k))

let suite =
  [
    ( "golden",
      [
        tc "table 2 IPX within 15%" test_table2_ipx;
        tc "table 2 SPARC 1+ within 15%" test_table2_1plus;
        tc "metrics deterministic" test_deterministic_measures;
        tc "table 4 counterexample replays" test_golden_table4;
        tc "lost-wakeup counterexample replays" test_golden_lost_wakeup;
      ] );
  ]
