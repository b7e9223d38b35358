open Pthreads
module E = Check.Explore

type config = {
  seeds : int list;
  budget : int;
  kinds : Plan.kinds;
  sanitize : bool;
}

let default_config =
  {
    seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
    budget = 6;
    kinds = Plan.safe_kinds;
    sanitize = true;
  }

type failure = {
  f_scenario : string;
  f_seed : int;
  f_kind : E.failure_kind;
  f_plan : Plan.t;
  f_first_plan : Plan.t;
  f_san : Sanitize.Report.t option;
}

type report = {
  r_scenarios : int;
  r_runs : int;
  r_points : int;
  r_injected : int;
  r_failures : failure list;
}

let run_full ?(sanitize = true) ~mk (plan : Plan.t) =
  let eng = mk () in
  (* The first invariant violation wins regardless of how the run ends:
     injected faults routinely push a broken program into a secondary
     deadlock after the interesting state, and reporting that would bury
     the signal. *)
  let violation = ref None in
  let on_point _k =
    if !violation = None then
      match Check.Invariant.check eng with
      | Some v -> violation := Some v
      | None -> ()
  in
  let mon = if sanitize then Some (Sanitize.Monitor.attach eng) else None in
  let inj = Inject.install ~on_point eng plan in
  let outcome =
    try
      Pthread.start eng;
      E.verdict eng
    with Types.Process_stopped r -> Some (E.of_stop_reason r)
  in
  let outcome =
    match !violation with
    | Some v -> Some (E.Invariant_violated v)
    | None -> outcome
  in
  let san = Option.map Sanitize.Monitor.report mon in
  (* Predictive findings count as failures in their own right: a soak run
     that completes cleanly but exhibits a race or a lock-order cycle is a
     bug found, same as an invariant violation. *)
  let outcome =
    match (outcome, san) with
    | None, Some r when not (Sanitize.Report.is_clean r) ->
        Some (E.Invariant_violated ("sanitizer: " ^ Sanitize.Report.summary r))
    | o, _ -> o
  in
  (outcome, Inject.points inj, Inject.injected inj, san)

let run_one ?sanitize ~mk (plan : Plan.t) =
  let outcome, points, injected, _ = run_full ?sanitize ~mk plan in
  (outcome, points, injected)

let shrink ?sanitize ~mk (plan0 : Plan.t) =
  let fails p =
    match run_one ?sanitize ~mk (Array.to_list p) with
    | Some _, _, _ -> true
    | None, _, _ -> false
  in
  let plan = Array.to_list (E.Shrink.minimize ~fails (Array.of_list plan0)) in
  match run_one ?sanitize ~mk plan with
  | Some kind, _, _ -> (plan, kind)
  | None, _, _ ->
      (* cannot happen: [plan] failed on its last [fails] check (or is
         [plan0], which fails) and runs are deterministic *)
      assert false

(* The sanitizer report of a (shrunk) failing plan, for the [.san]
   artifact: [None] when sanitizing is off or the monitored re-run found
   nothing (e.g. a pure invariant failure). *)
let san_of_plan ~mk plan =
  let _, _, _, san = run_full ~sanitize:true ~mk plan in
  match san with
  | Some r when not (Sanitize.Report.is_clean r) -> Some r
  | Some _ | None -> None

let soak ?(config = default_config) (scenarios : Check.Scenarios.t list) =
  let failures = ref [] in
  let runs = ref 0 and points = ref 0 and injected = ref 0 in
  let record f = failures := f :: !failures in
  List.iter
    (fun (s : Check.Scenarios.t) ->
      let mk = s.Check.Scenarios.make in
      let sanitize = config.sanitize in
      let base_outcome, base_points, _ = run_one ~sanitize ~mk [] in
      incr runs;
      points := !points + base_points;
      match base_outcome with
      | Some kind ->
          (* the scenario fails with no faults at all: that is a finding in
             itself, reported with an empty plan *)
          record
            {
              f_scenario = s.Check.Scenarios.name;
              f_seed = -1;
              f_kind = kind;
              f_plan = [];
              f_first_plan = [];
              f_san = (if sanitize then san_of_plan ~mk [] else None);
            }
      | None ->
          List.iter
            (fun seed ->
              let plan =
                Plan.random ~seed ~points:base_points ~budget:config.budget
                  config.kinds
              in
              let outcome, pts, inj = run_one ~sanitize ~mk plan in
              incr runs;
              points := !points + pts;
              injected := !injected + inj;
              match outcome with
              | None -> ()
              | Some _ ->
                  let shrunk, kind = shrink ~sanitize ~mk plan in
                  record
                    {
                      f_scenario = s.Check.Scenarios.name;
                      f_seed = seed;
                      f_kind = kind;
                      f_plan = shrunk;
                      f_first_plan = plan;
                      f_san =
                        (if sanitize then san_of_plan ~mk shrunk else None);
                    })
            config.seeds)
    scenarios;
  {
    r_scenarios = List.length scenarios;
    r_runs = !runs;
    r_points = !points;
    r_injected = !injected;
    r_failures = List.rev !failures;
  }

let default_suite =
  [
    Check.Scenarios.ordered_ab;
    Check.Scenarios.micro_two;
    Check.Scenarios.three_two;
    Check.Scenarios.lost_wakeup ~fixed:true;
    Check.Scenarios.ceiling_nested;
    Check.Scenarios.cancel_cond_wait ~with_cleanup:true;
    Check.Scenarios.timed_consumer;
    Check.Scenarios.cancel_states;
  ]

let json_of_failure f =
  Printf.sprintf
    "{\"scenario\": %S, \"seed\": %d, \"kind\": %S, \"injections\": %d, \
     \"san\": %S}"
    f.f_scenario f.f_seed
    (E.failure_kind_to_string f.f_kind)
    (Plan.length f.f_plan)
    (match f.f_san with Some r -> Sanitize.Report.summary r | None -> "clean")

let json_of_report r =
  Printf.sprintf
    "{\"soak\": {\"scenarios\": %d, \"runs\": %d, \"points\": %d, \
     \"injected\": %d, \"failures\": [%s]}}"
    r.r_scenarios r.r_runs r.r_points r.r_injected
    (String.concat ", " (List.map json_of_failure r.r_failures))

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d scenario(s), %d run(s): %d fault point(s), %d fault(s) injected@ "
    r.r_scenarios r.r_runs r.r_points r.r_injected;
  (match r.r_failures with
  | [] -> Format.fprintf ppf "no failures"
  | fs ->
      Format.fprintf ppf "%d failure(s):" (List.length fs);
      List.iter
        (fun f ->
          Format.fprintf ppf "@   %s (seed %d): %s, %d injection(s)"
            f.f_scenario f.f_seed
            (E.failure_kind_to_string f.f_kind)
            (Plan.length f.f_plan))
        fs);
  Format.fprintf ppf "@]"
