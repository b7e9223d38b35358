(* Explorer throughput, reduction and coverage benchmark.

     dune exec bench/bench_explore.exe                  # full numbers
     dune exec bench/bench_explore.exe -- --smoke       # reduced CI budget
     dune exec bench/bench_explore.exe -- --domains 1,2,4
     dune exec bench/bench_explore.exe -- --gate        # exit 1 on regression
     dune exec bench/bench_explore.exe -- --out BENCH_sched.json
     dune exec bench/bench_explore.exe -- --sched-dir DIR

   Three measurements:
     1. sequential DPOR vs full enumeration (reduction ratio), as before;
     2. parallel DPOR schedules/sec per domain count over the safe half of
        the catalogue (the result is domain-count invariant, so only the
        wall clock moves);
     3. a DPOR-vs-PCT coverage table over the buggy half: runs each mode
        needed to find the bug, with the PCT probability bound alongside.

   Prints one human-readable block per measurement plus JSON summary lines
   ("BENCH_explore:" as before, "BENCH_explore_parallel:" and
   "BENCH_explore_pct:" for the new tables).  With --out FILE the new
   tables are also written into the top-level JSON object of FILE
   (BENCH_sched.json style).  --gate enforces self-relative floors only —
   2 domains must retain >= 0.5x of the 1-domain schedules/sec and PCT >=
   0.5x of sequential DPOR — because absolute numbers and multi-core
   speedups depend on the host (CI runners are often single-core). *)

module E = Check.Explore
module Sm = Check.Sample
module S = Check.Scenarios

let argv = Sys.argv
let smoke = Array.exists (( = ) "--smoke") argv
let gate = Array.exists (( = ) "--gate") argv

let arg_value name =
  let rec find i =
    if i >= Array.length argv - 1 then None
    else if argv.(i) = name then Some argv.(i + 1)
    else find (i + 1)
  in
  find 1

let domain_counts =
  match arg_value "--domains" with
  | None -> [ 1; 2; 4 ]
  | Some s -> List.map int_of_string (String.split_on_char ',' s)

let out_file = arg_value "--out"
let sched_dir = arg_value "--sched-dir"

(* the sampler seed is pinned: bench numbers must reproduce *)
let pct_seed = 0x5EED_09C7
let pct_depth = 3

type row = {
  r_name : string;
  r_runs : int;
  r_steps : int;
  r_secs : float;
  r_full_runs : int option;  (** full-enumeration run count, when measured *)
  r_full_capped : bool;
}

let time f =
  let t0 = Vm.Real_clock.now_s () in
  let x = f () in
  (x, Vm.Real_clock.now_s () -. t0)

let explore ?config name mk =
  let result, secs = time (fun () -> E.run ?config mk) in
  (match result.E.failure with
  | Some f ->
      Printf.eprintf "%s: unexpected failure %s\n" name
        (E.failure_kind_to_string f.E.kind);
      exit 1
  | None -> ());
  (result.E.stats, secs)

let no_reduction = { E.default_config with dpor = false }

let bench ~full_budget (s : S.t) =
  let stats, secs = explore s.name s.make in
  (* full enumeration for the reduction ratio; capped where intractable,
     which makes the reported ratio a lower bound *)
  let full, _ =
    explore ~config:{ no_reduction with max_runs = full_budget }
      (s.name ^ " (full)") s.make
  in
  let capped = not full.E.complete in
  Printf.printf
    "%-12s dpor: %6d runs, %8d steps, %6.2f s (%.0f schedules/s)\n" s.name
    stats.E.runs stats.E.steps secs
    (float_of_int stats.E.runs /. secs);
  Printf.printf "%-12s full: %6d runs%s  reduction: %s%.1fx\n" "" full.E.runs
    (if capped then " (budget hit)" else "")
    (if capped then ">= " else "")
    (float_of_int full.E.runs /. float_of_int stats.E.runs);
  {
    r_name = s.name;
    r_runs = stats.E.runs;
    r_steps = stats.E.steps;
    r_secs = secs;
    r_full_runs = Some full.E.runs;
    r_full_capped = capped;
  }

let json_of_row r =
  Printf.sprintf
    "{\"scenario\": %S, \"runs\": %d, \"steps\": %d, \"secs\": %.3f, \
     \"schedules_per_sec\": %.0f%s}"
    r.r_name r.r_runs r.r_steps r.r_secs
    (float_of_int r.r_runs /. r.r_secs)
    (match r.r_full_runs with
    | None -> ""
    | Some n ->
        Printf.sprintf
          ", \"full_runs\": %d, \"full_capped\": %b, \"reduction\": %.1f" n
          r.r_full_capped
          (float_of_int n /. float_of_int r.r_runs))

(* ------------------------------------------------------------------ *)
(* Parallel scaling: schedules/sec per domain count                    *)
(* ------------------------------------------------------------------ *)

(* the safe, fully-explorable workload: every domain count explores the
   identical schedule set, so runs are comparable by construction *)
let parallel_workload =
  if smoke then [ S.micro_two; S.three_two ]
  else
    [
      S.micro_two;
      S.ordered_ab;
      S.three_two;
      S.ceiling_nested;
      S.cancel_cond_wait ~with_cleanup:true;
    ]

let bench_parallel domains =
  let total_runs = ref 0 and total_steps = ref 0 in
  let _, secs =
    time (fun () ->
        List.iter
          (fun (s : S.t) ->
            let r = E.run_parallel ~domains s.S.make in
            (match r.E.failure with
            | Some f ->
                Printf.eprintf "%s: unexpected failure %s\n" s.S.name
                  (E.failure_kind_to_string f.E.kind);
                exit 1
            | None -> ());
            total_runs := !total_runs + r.E.stats.E.runs;
            total_steps := !total_steps + r.E.stats.E.steps)
          parallel_workload)
  in
  let sps = float_of_int !total_runs /. secs in
  Printf.printf "parallel d=%d: %6d runs, %8d steps, %6.2f s (%.0f schedules/s)\n"
    domains !total_runs !total_steps secs sps;
  (domains, !total_runs, secs, sps)

let json_of_parallel (domains, runs, secs, sps) =
  Printf.sprintf
    "{\"domains\": %d, \"runs\": %d, \"secs\": %.3f, \
     \"schedules_per_sec\": %.0f}"
    domains runs secs sps

(* ------------------------------------------------------------------ *)
(* DPOR vs PCT coverage                                                *)
(* ------------------------------------------------------------------ *)

let buggy_workload =
  [
    S.deadlock_ab;
    S.racy_counter;
    S.lost_wakeup ~fixed:false;
    S.table4 ~mode:Pthreads.Types.Stack_pop;
    S.cancel_cond_wait ~with_cleanup:false;
  ]

let bench_pct (s : S.t) =
  let dpor, dpor_secs = time (fun () -> E.run s.S.make) in
  let dpor_runs = dpor.E.stats.E.runs in
  let cfg =
    { Sm.default_config with runs = (if smoke then 2_000 else 10_000);
      sanitize = false }
  in
  let pct, pct_secs =
    time (fun () ->
        Sm.run ~config:cfg ~method_:(Sm.Pct { depth = pct_depth })
          ~seed:pct_seed s.S.make)
  in
  let found r = r.Sm.s_failure <> None in
  let runs_to_find r =
    match r.Sm.s_failure_index with Some i -> i + 1 | None -> r.Sm.s_runs
  in
  (match (dpor.E.failure, pct.Sm.s_failure) with
  | Some _, Some _ -> ()
  | df, pf ->
      Printf.eprintf "%s: coverage mismatch (dpor %b, pct %b)\n" s.S.name
        (df <> None) (pf <> None);
      exit 1);
  Printf.printf
    "%-16s dpor: found in %5d runs  pct: found in %5d runs (bound p>=%.1e)\n"
    s.S.name dpor_runs (runs_to_find pct)
    (match pct.Sm.s_bound with Some b -> b.Sm.b_single | None -> 0.0);
  (match sched_dir with
  | Some dir ->
      let f = Option.get pct.Sm.s_failure in
      let path = Filename.concat dir (s.S.name ^ "_pct.sched") in
      let oc = open_out path in
      output_string oc (Check.Schedule.to_string f.E.schedule);
      Printf.fprintf oc "# scenario: %s\n# method: pct(d=%d) seed %#x\n\
                         # fails with: %s\n"
        s.S.name pct_depth pct_seed
        (E.failure_kind_to_string f.E.kind);
      close_out oc
  | None -> ());
  ignore found;
  ( s.S.name,
    dpor_runs,
    dpor_secs,
    runs_to_find pct,
    pct_secs,
    pct.Sm.s_runs,
    pct.Sm.s_bound )

let json_of_pct (name, dpor_runs, dpor_secs, pct_find, pct_secs, pct_runs, bound)
    =
  Printf.sprintf
    "{\"scenario\": %S, \"dpor_runs\": %d, \"dpor_secs\": %.3f, \
     \"pct_runs_to_find\": %d, \"pct_runs\": %d, \"pct_secs\": %.3f, \
     \"pct_schedules_per_sec\": %.0f%s}"
    name dpor_runs dpor_secs pct_find pct_runs pct_secs
    (float_of_int pct_runs /. pct_secs)
    (match bound with
    | Some b ->
        Printf.sprintf ", \"pct_bound\": %.3e, \"pct_cumulative\": %.4f"
          b.Sm.b_single b.Sm.b_cumulative
    | None -> "")

(* ------------------------------------------------------------------ *)

let () =
  let rows = ref [] in
  let add r = rows := r :: !rows in
  (* exact ratio: micro-two's full enumeration completes within budget *)
  add (bench ~full_budget:200_000 S.micro_two);
  add (bench ~full_budget:20_000 S.ordered_ab);
  if not smoke then
    (* 3 threads / 2 mutexes: DPOR exhausts it; full enumeration cannot *)
    add (bench ~full_budget:100_000 S.three_two)
  else begin
    let stats, secs = explore S.three_two.name S.three_two.make in
    Printf.printf "%-12s dpor: %6d runs, %8d steps, %6.2f s\n" S.three_two.name
      stats.E.runs stats.E.steps secs;
    add
      {
        r_name = S.three_two.name;
        r_runs = stats.E.runs;
        r_steps = stats.E.steps;
        r_secs = secs;
        r_full_runs = None;
        r_full_capped = false;
      }
  end;
  Printf.printf "BENCH_explore: {\"explore\": [%s]}\n"
    (String.concat ", " (List.rev_map json_of_row !rows));
  (* parallel scaling *)
  print_newline ();
  let par = List.map bench_parallel domain_counts in
  let par_json =
    Printf.sprintf "[%s]" (String.concat ", " (List.map json_of_parallel par))
  in
  Printf.printf "BENCH_explore_parallel: {\"explore_parallel\": %s}\n" par_json;
  (* coverage table *)
  print_newline ();
  let pct = List.map bench_pct buggy_workload in
  let pct_json =
    Printf.sprintf "[%s]" (String.concat ", " (List.map json_of_pct pct))
  in
  Printf.printf "BENCH_explore_pct: {\"explore_pct\": %s}\n" pct_json;
  (match out_file with
  | Some f ->
      Bench_json.set_keys f
        [ ("explore_parallel", par_json); ("explore_pct", pct_json) ];
      Printf.printf "wrote explore_parallel + explore_pct to %s\n" f
  | None -> ());
  if gate then begin
    (* Self-relative floors only, and noise-tolerant: CI runners are often
       single-core, where Domain.spawn overhead dominates small batches and
       absolute schedules/sec mean nothing.  The 2-domain check therefore
       compares wall clocks with a fixed overhead allowance (a real
       regression — e.g. accidental serialization under a shared lock —
       blows past 2x + 0.5 s on the full workload, spawn overhead on a tiny
       one does not).  PCT rates are only gated when the sampler actually
       executed enough runs for the rate to be a measurement. *)
    let wall d =
      match List.find_opt (fun (d', _, _, _) -> d' = d) par with
      | Some (_, _, s, _) -> Some s
      | None -> None
    in
    let failures = ref [] in
    (match (wall 1, wall 2) with
    | Some s1, Some s2 when s2 > (2.0 *. s1) +. 0.5 ->
        failures :=
          Printf.sprintf
            "2-domain wall clock collapsed: %.2f s vs %.2f s at 1 domain" s2
            s1
          :: !failures
    | _ -> ());
    let seq_sps =
      let totals =
        List.fold_left
          (fun (r, t) row -> (r + row.r_runs, t +. row.r_secs))
          (0, 0.0) !rows
      in
      float_of_int (fst totals) /. snd totals
    in
    List.iter
      (fun (name, _, _, _, pct_secs, pct_runs, _) ->
        let psps = float_of_int pct_runs /. pct_secs in
        if pct_runs >= 100 && pct_secs >= 0.05 && psps < 0.2 *. seq_sps then
          failures :=
            Printf.sprintf "PCT throughput collapsed on %s: %.0f vs %.0f"
              name psps seq_sps
            :: !failures)
      pct;
    match !failures with
    | [] -> print_endline "gate: throughput within bounds"
    | fs ->
        List.iter (Printf.eprintf "gate: %s\n") fs;
        exit 1
  end
