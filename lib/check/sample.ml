(* Probabilistic schedule sampling: PCT priority scheduling and uniform
   random walks.

   PCT (Burckhardt et al., "A Randomized Scheduler with Probabilistic
   Guarantees of Finding Bugs", ASPLOS 2010) runs the program under a
   strict priority scheduler: every thread gets a random distinct high
   initial priority, and d-1 priority-change points are sampled uniformly
   over the run's length — when execution reaches the i-th change point,
   the currently running thread is demoted to the (low) priority d-i.  Any
   bug of depth d (one that a fixed set of d ordering constraints
   triggers) is then found with probability at least 1/(n * k^(d-1)) per
   run, for n threads and k steps.  We surface that bound (and its
   cumulative complement over the whole budget) in the report, using the
   largest n and k actually observed.

   Every sampled run executes under {!Invariant.check} (built into
   [Explore.run_once]'s driver) and, by default, under the
   {!Sanitize.Monitor}, so a run that completes cleanly can still fail by
   prediction — races, lock-order cycles, leaks.  Failures of either sort
   are shrunk with the binary-prefix + greedy-splice minimizer and
   re-recorded as complete decision lists, so the resulting [.sched]
   serialization replays byte-for-byte. *)

module Rng = Vm.Rng

type method_ = Pct of { depth : int } | Uniform

let method_to_string = function
  | Pct { depth } -> Printf.sprintf "pct(d=%d)" depth
  | Uniform -> "uniform"

type config = { runs : int; max_steps : int; sanitize : bool }

let default_config = { runs = 256; max_steps = 5_000; sanitize = true }

type bound = {
  b_threads : int;
  b_steps : int;
  b_depth : int;
  b_single : float;
  b_cumulative : float;
}

type report = {
  s_method : method_;
  s_seed : int;
  s_runs : int;
  s_cut_runs : int;
  s_steps : int;
  s_max_depth : int;
  s_threads : int;
  s_failure : Explore.failure option;
  s_failure_index : int option;
  s_bound : bound option;
}

(* One PCT run's picking policy.  [horizon] is the change-point sampling
   range — the longest run seen so far (starting at a floor), so change
   points land inside the run with high probability even before the first
   run has measured k. *)
let pct_pick ~depth ~horizon rng threads_seen =
  let prio : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let nchanges = depth - 1 in
  let changes =
    Array.init nchanges (fun _ -> 1 + Rng.int rng (max 1 horizon))
  in
  Array.sort compare changes;
  let next = ref 0 in
  fun ~k ~enabled ~prev:(prev : int option) ->
    List.iter
      (fun t ->
        if not (Hashtbl.mem prio t) then begin
          incr threads_seen;
          (* distinct with high probability; ties break on the lower tid *)
          Hashtbl.replace prio t (depth + Rng.int rng 0x3FFF_FFFF)
        end)
      enabled;
    while !next < nchanges && changes.(!next) <= k do
      (* the i-th change point (1-based) demotes the running thread to
         priority d-i: below every initial priority, and later change
         points demote below earlier ones *)
      (match prev with
      | Some p -> Hashtbl.replace prio p (nchanges - !next)
      | None -> ());
      incr next
    done;
    match enabled with
    | [] -> invalid_arg "Sample: no enabled thread"
    | e :: es ->
        List.fold_left
          (fun best t ->
            let pb = Hashtbl.find prio best and pt = Hashtbl.find prio t in
            if pt > pb || (pt = pb && t < best) then t else best)
          e es

let uniform_pick rng threads_seen =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  fun ~k:_ ~enabled ~prev:(_ : int option) ->
    List.iter
      (fun t ->
        if not (Hashtbl.mem seen t) then begin
          Hashtbl.replace seen t ();
          incr threads_seen
        end)
      enabled;
    List.nth enabled (Rng.int rng (List.length enabled))

let run ?(config = default_config) ~method_ ~seed mk =
  (match method_ with
  | Pct { depth } when depth < 1 ->
      invalid_arg "Sample.run: PCT depth must be >= 1"
  | _ -> ());
  let ecfg = { Explore.default_config with max_steps = config.max_steps } in
  let master = Rng.create seed in
  let total_steps = ref 0 and max_depth = ref 0 and max_threads = ref 0 in
  let done_runs = ref 0 and cut_runs = ref 0 in
  let failure = ref None and failure_index = ref None in
  let horizon = ref 64 in
  let mon = ref None in
  let mk_run () =
    let eng = mk () in
    if config.sanitize then mon := Some (Sanitize.Monitor.attach eng);
    eng
  in
  let san_dirty () =
    match !mon with
    | Some m ->
        let r = Sanitize.Monitor.report m in
        if Sanitize.Report.is_clean r then None
        else Some (Sanitize.Report.summary r)
    | None -> None
  in
  (* shrinking predicate for sanitizer-discovered findings: the candidate
     prefix must replay faithfully and still yield either a direct failure
     or a dirty report *)
  let san_fails (prefix : Schedule.t) =
    let m = ref None in
    let mk2 () =
      let e = mk () in
      m := Some (Sanitize.Monitor.attach e);
      e
    in
    match Explore.force ~config:ecfg ~strict:true mk2 prefix with
    | _, _, Some _ -> false
    | _, Explore.Failed _, None -> true
    | _, (Explore.Ok_run | Explore.Cut_run), None -> (
        match !m with
        | Some mm -> not (Sanitize.Report.is_clean (Sanitize.Monitor.report mm))
        | None -> false)
  in
  (try
     for i = 0 to config.runs - 1 do
       (* each run gets its own stream, re-derivable from (seed, i) *)
       let rng = Rng.fork master i in
       let threads_seen = ref 0 in
       let pick =
         match method_ with
         | Uniform -> uniform_pick rng threads_seen
         | Pct { depth } -> pct_pick ~depth ~horizon:!horizon rng threads_seen
       in
       mon := None;
       incr done_runs;
       let sched, outcome = Explore.run_once ~config:ecfg ~pick mk_run in
       let n = Array.length sched in
       total_steps := !total_steps + n;
       if n > !max_depth then max_depth := n;
       if n > !horizon then horizon := n;
       if !threads_seen > !max_threads then max_threads := !threads_seen;
       match outcome with
       | Explore.Failed kind ->
           failure := Some (Explore.shrink_failure ~config:ecfg mk kind sched);
           failure_index := Some i;
           raise Exit
       | Explore.Ok_run | Explore.Cut_run -> (
           if outcome = Explore.Cut_run then incr cut_runs;
           match san_dirty () with
           | Some summary ->
               let kind =
                 Explore.Invariant_violated ("sanitizer: " ^ summary)
               in
               failure :=
                 Some
                   (Explore.shrink_failure ~config:ecfg ~fails:san_fails mk
                      kind sched);
               failure_index := Some i;
               raise Exit
           | None -> ())
     done
   with Exit -> ());
  let bound =
    match method_ with
    | Uniform -> None
    | Pct { depth } ->
        let n = max 1 !max_threads and k = max 1 !max_depth in
        let p =
          1.0 /. (float_of_int n *. (float_of_int k ** float_of_int (depth - 1)))
        in
        let cum = 1.0 -. ((1.0 -. p) ** float_of_int !done_runs) in
        Some
          {
            b_threads = n;
            b_steps = k;
            b_depth = depth;
            b_single = p;
            b_cumulative = cum;
          }
  in
  {
    s_method = method_;
    s_seed = seed;
    s_runs = !done_runs;
    s_cut_runs = !cut_runs;
    s_steps = !total_steps;
    s_max_depth = !max_depth;
    s_threads = !max_threads;
    s_failure = !failure;
    s_failure_index = !failure_index;
    s_bound = bound;
  }

let pp_report ppf r =
  Format.fprintf ppf "%s seed=%#x: %d run%s, %d steps, deepest %d, %d thread%s"
    (method_to_string r.s_method)
    r.s_seed r.s_runs
    (if r.s_runs = 1 then "" else "s")
    r.s_steps r.s_max_depth r.s_threads
    (if r.s_threads = 1 then "" else "s");
  (match r.s_bound with
  | Some b ->
      Format.fprintf ppf
        ";@ PCT bound: p >= 1/(%d * %d^%d) = %.2e per run, %.3f cumulative"
        b.b_threads b.b_steps (b.b_depth - 1) b.b_single b.b_cumulative
  | None -> ());
  match (r.s_failure, r.s_failure_index) with
  | Some f, Some i ->
      Format.fprintf ppf ";@ run %d failed: %s (shrunk to %d decision%s)" i
        (Explore.failure_kind_to_string f.kind)
        (Array.length f.schedule)
        (if Array.length f.schedule = 1 then "" else "s")
  | _ -> Format.fprintf ppf ";@ no failure found"

let json_of_report r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"method\": \"%s\", \"seed\": %d, \"runs\": %d, \"steps\": %d, \
        \"max_depth\": %d, \"threads\": %d"
       (method_to_string r.s_method)
       r.s_seed r.s_runs r.s_steps r.s_max_depth r.s_threads);
  (match r.s_bound with
  | Some bd ->
      Buffer.add_string b
        (Printf.sprintf
           ", \"bound\": {\"threads\": %d, \"steps\": %d, \"depth\": %d, \
            \"single\": %.6e, \"cumulative\": %.6f}"
           bd.b_threads bd.b_steps bd.b_depth bd.b_single bd.b_cumulative)
  | None -> ());
  (match (r.s_failure, r.s_failure_index) with
  | Some f, Some i ->
      Buffer.add_string b
        (Printf.sprintf
           ", \"failure\": {\"run\": %d, \"kind\": %S, \"schedule_len\": %d}" i
           (Explore.failure_kind_to_string f.kind)
           (Array.length f.schedule))
  | _ -> Buffer.add_string b ", \"failure\": null");
  Buffer.add_string b "}";
  Buffer.contents b
