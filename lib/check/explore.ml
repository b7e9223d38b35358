open Pthreads
open Pthreads.Types
module IntSet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type failure_kind =
  | Deadlocked of string
  | Killed of int
  | Invariant_violated of string
  | Main_raised of string
  | Bad_exit of int

let failure_kind_to_string = function
  | Deadlocked m -> "deadlock: " ^ m
  | Killed s -> "killed by signal " ^ string_of_int s
  | Invariant_violated m -> "invariant violated: " ^ m
  | Main_raised m -> "main raised: " ^ m
  | Bad_exit n -> Printf.sprintf "main exited with status %d" n

let verdict eng =
  match Invariant.check_final eng with
  | Some v -> Some (Invariant_violated v)
  | None -> (
      match Pthread.main_status eng with
      | Some (Failed e) -> Some (Main_raised (Printexc.to_string e))
      | Some (Exited n) when n <> 0 -> Some (Bad_exit n)
      | Some (Exited _ | Canceled) | None -> None)

let of_stop_reason = function
  | Deadlock m -> Deadlocked m
  | Killed_by_signal s -> Killed s

type failure = {
  kind : failure_kind;
  schedule : Schedule.t;
  first_schedule : Schedule.t;
}

type exhaustion = { ex_frontier : int; ex_cut_runs : int }

type stats = {
  runs : int;
  steps : int;
  max_depth : int;
  pruned : int;
  complete : bool;
  exhausted : exhaustion option;
}

type result = { failure : failure option; stats : stats }

type config = { max_runs : int; max_steps : int; dpor : bool }

let default_config = { max_runs = 100_000; max_steps = 5_000; dpor = true }

(* A bare [touch] is conservatively a write: it marks "this step may
   mutate user object [id]", which is what both the explorer's dependence
   relation and the sanitizer's race detector need to stay sound. *)
let touch eng id = Engine.touch_rw eng (Engine.key_user id) ~write:true
let touch_read eng id = Engine.touch_rw eng (Engine.key_user id) ~write:false
let touch_write eng id = Engine.touch_rw eng (Engine.key_user id) ~write:true

(* ------------------------------------------------------------------ *)
(* Executing one run                                                   *)
(* ------------------------------------------------------------------ *)

(* A run is a fresh engine driven to completion with the explorer's
   chooser deciding at every scheduling point.  The recorded steps double
   as the schedule (the chosen tids) and as the dependence trace (the
   footprints): keys touched between decision [k] and decision [k+1]
   belong to step [k]. *)

type step = {
  st_enabled : int list;  (** ready tids at this point, creation order *)
  st_chosen : int;
  mutable st_foot : int list;  (** keys the step touched; filled at [k+1] *)
}

type pick_ctx = {
  pc_k : int;  (** decision index *)
  pc_enabled : int list;
  pc_prev : int option;  (** previously dispatched tid *)
  pc_sleeping : int -> bool;
  pc_sleep_add : int -> int list -> unit;
      (** put a tid to sleep, with the footprint its pending step had when
          it was explored earlier *)
}

exception Prune_run
exception Too_deep
exception Abort_run of failure_kind
exception Diverged of int

type run_end =
  | Completed
  | Failed_run of failure_kind
  | Pruned  (** cut short by the sleep-set check *)
  | Cut  (** exceeded the step budget: exploration no longer exhaustive *)

(* Steps by different threads are dependent iff their footprints intersect,
   where a step's footprint implicitly includes its executing thread. *)
let dependent tid1 foot1 tid2 foot2 =
  tid1 = tid2
  || List.mem (Engine.key_thread tid1) foot2
  || List.mem (Engine.key_thread tid2) foot1
  || List.exists (fun k -> List.mem k foot2) foot1

let default_pick ctx =
  (* stay on the last-run thread when possible — fewer forced switches, so
     shrunk counterexamples read naturally — else the lowest awake tid *)
  let awake = List.filter (fun t -> not (ctx.pc_sleeping t)) ctx.pc_enabled in
  match awake with
  | [] -> raise Prune_run
  | first :: rest -> (
      match ctx.pc_prev with
      | Some p when List.mem p awake -> p
      | _ -> List.fold_left min first rest)

let exec ~(mk : unit -> engine) ~(cfg : config) ~(pick : pick_ctx -> int) () =
  let eng = mk () in
  let steps = ref [] in
  let depth = ref 0 in
  let sleep : (int * int list) list ref = ref [] in
  let prev_tid = ref None in
  (* keys touched since the last decision, newest first *)
  let touched = ref [] in
  let take_touched () =
    let ks = !touched in
    touched := [];
    ks
  in
  Engine.subscribe eng (function
    | Touch k | San_access { a_key = k; _ } -> touched := k :: !touched
    | _ -> ());
  (* Every kernel exit and checkpoint requeues the running thread (in
     any bucket: the pick ignores priority), and every pick chooses among
     all ready threads — interleavings the dispatcher never produces. *)
  let ch_requeue point _ = if point = At_mutex_acquired then -1 else min_prio in
  let decide eng n =
    (* close the previous step: its footprint is everything touched since *)
    let foot = take_touched () in
    (match !steps with
    | s :: _ ->
        s.st_foot <- foot;
        (* only a DPOR pick puts threads to sleep *)
        if !sleep <> [] then
          sleep :=
            List.filter
              (fun (t, f) -> not (dependent s.st_chosen foot t f))
              !sleep
    | [] -> ());
    (match Invariant.check eng with
    | Some v -> raise (Abort_run (Invariant_violated v))
    | None -> ());
    if !depth >= cfg.max_steps then raise Too_deep;
    let enabled = List.init n (fun i -> (Engine.ready_at eng i).tid) in
    let ctx =
      {
        pc_k = !depth;
        pc_enabled = enabled;
        pc_prev = !prev_tid;
        pc_sleeping = (fun tid -> List.mem_assoc tid !sleep);
        pc_sleep_add =
          (fun tid f ->
            if not (List.mem_assoc tid !sleep) then sleep := (tid, f) :: !sleep);
      }
    in
    let chosen = pick ctx in
    incr depth;
    prev_tid := Some chosen;
    steps := { st_enabled = enabled; st_chosen = chosen; st_foot = [] } :: !steps;
    match Engine.find_thread eng chosen with
    | Some t when t.state = Ready ->
        if Engine.tracing eng then
          Engine.trace eng t (Vm.Trace.Sched_decision (enabled, chosen));
        t
    | _ -> invalid_arg "Explore: picked a tid that is not enabled"
  in
  let ch_pick eng =
    match Engine.ready_view eng with 0 -> nil_tcb | n -> decide eng n
  in
  Engine.set_chooser eng (Some { ch_requeue; ch_pick });
  let finish () =
    let foot = take_touched () in
    (match !steps with
    | s :: _ -> s.st_foot <- s.st_foot @ foot
    | [] -> ());
    match verdict eng with
    | Some kind -> Failed_run kind
    | None -> Completed
  in
  let outcome =
    try
      Pthread.start eng;
      finish ()
    with
    | Process_stopped r -> Failed_run (of_stop_reason r)
    | Abort_run kind -> Failed_run kind
    | Prune_run -> Pruned
    | Too_deep -> Cut
  in
  (List.rev !steps, outcome)

let schedule_of steps = Schedule.of_list (List.map (fun s -> s.st_chosen) steps)

(* ------------------------------------------------------------------ *)
(* Forced runs (replay, shrinking) and sampler-facing single runs      *)
(* ------------------------------------------------------------------ *)

let run_forced ?(config = default_config) mk (sched : Schedule.t) ~strict =
  let diverged = ref None in
  let pick ctx =
    if ctx.pc_k < Array.length sched then begin
      let c = sched.(ctx.pc_k) in
      if List.mem c ctx.pc_enabled then c
      else if strict then raise (Diverged ctx.pc_k)
      else begin
        if !diverged = None then diverged := Some ctx.pc_k;
        default_pick ctx
      end
    end
    else default_pick ctx
  in
  match exec ~mk ~cfg:config ~pick () with
  | steps, outcome -> (steps, outcome, !diverged)
  | exception Diverged k -> ([], Completed, Some k)

type outcome = Ok_run | Failed of failure_kind | Cut_run

let outcome_of_run_end = function
  | Completed | Pruned -> Ok_run
  | Failed_run k -> Failed k
  | Cut -> Cut_run

let run_once ?(config = default_config) ~pick mk =
  let pick ctx = pick ~k:ctx.pc_k ~enabled:ctx.pc_enabled ~prev:ctx.pc_prev in
  let steps, outcome = exec ~mk ~cfg:config ~pick () in
  (schedule_of steps, outcome_of_run_end outcome)

let force ?(config = default_config) ~strict mk (sched : Schedule.t) =
  let steps, outcome, diverged = run_forced ~config mk sched ~strict in
  (schedule_of steps, outcome_of_run_end outcome, diverged)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* A failing run is reproduced by forcing its full decision list; shorter
   prefixes (with the deterministic default policy filling the tail) often
   still fail.  Find the shortest failing prefix by binary search, then
   drop individual decisions greedily until no single removal still fails,
   and finally re-record the complete decision list of the shrunk run so
   the emitted schedule replays without any reliance on the default
   policy.  The two passes are exposed as pure functions over an abstract
   failing predicate and any element type, so samplers, the fault soak
   (which shrinks injection plans) and tests reuse them. *)

module Shrink = struct
  let prefix_search ~fails full =
    if Array.length full = 0 then full
    else begin
      let sub l = Array.sub full 0 l in
      let lo = ref 0 and hi = ref (Array.length full) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fails (sub mid) then hi := mid else lo := mid + 1
      done;
      (* failure depth need not be monotone in the prefix length; verify
         the binary-search answer and fall back to the full list *)
      if fails (sub !lo) then sub !lo else full
    end

  let splice_pass ~fails a =
    let cur = ref a in
    let i = ref (Array.length a - 1) in
    while !i >= 0 do
      let p = !cur in
      if !i < Array.length p then begin
        let cand =
          Array.append (Array.sub p 0 !i)
            (Array.sub p (!i + 1) (Array.length p - !i - 1))
        in
        if fails cand then cur := cand
      end;
      decr i
    done;
    !cur

  let splice ~fails a =
    (* to a fixpoint: a pass that removes nothing proves the result is
       minimal under single-element removal *)
    let cur = ref a in
    let again = ref true in
    while !again do
      let next = splice_pass ~fails !cur in
      if Array.length next = Array.length !cur then again := false;
      cur := next
    done;
    !cur

  let minimize ~fails full = splice ~fails (prefix_search ~fails full)
end

let shrink_failure ?(config = default_config) ?fails mk kind0
    (full : Schedule.t) =
  let default_fails (prefix : Schedule.t) =
    match run_forced ~config mk prefix ~strict:true with
    | _, Failed_run _, None -> true
    | _ -> false
  in
  let fails = match fails with Some f -> f | None -> default_fails in
  if Array.length full = 0 then
    { kind = kind0; schedule = full; first_schedule = full }
  else
    let minimal = Shrink.minimize ~fails full in
    match run_forced ~config mk minimal ~strict:true with
    | steps, Failed_run kind, None ->
        { kind; schedule = schedule_of steps; first_schedule = full }
    | steps, (Completed | Pruned | Cut), None ->
        (* a custom [fails] (e.g. a sanitizer verdict) can hold on a run
           that completes cleanly; keep the caller's kind *)
        { kind = kind0; schedule = schedule_of steps; first_schedule = full }
    | _ -> { kind = kind0; schedule = minimal; first_schedule = full }

let make_failure ~cfg ~mk kind steps =
  shrink_failure ~config:cfg mk kind (schedule_of steps)

(* ------------------------------------------------------------------ *)
(* Systematic exploration (DPOR + sleep sets)                          *)
(* ------------------------------------------------------------------ *)

(* One cell per depth of the current exploration path, in the style of
   dscheck's stateless DFS: the cell remembers which choices were taken
   ([c_done]), which the race analysis demands ([c_backtrack]), and the
   footprint each explored child had ([c_foot] — the sleep-set wake
   condition for later branches). *)

type cell = {
  c_enabled : int list;
  mutable c_chosen : int;
  mutable c_done : IntSet.t;
  mutable c_backtrack : IntSet.t;
  c_foot : (int, int list) Hashtbl.t;
}

let run ?(config = default_config) mk =
  let cfg = config in
  let tbl : (int, cell) Hashtbl.t = Hashtbl.create 256 in
  let len = ref 0 in
  let prefix_len = ref 0 in
  let runs = ref 0 and total_steps = ref 0 in
  let max_depth = ref 0 and pruned = ref 0 in
  let cut = ref 0 in
  let budget_stopped = ref false in
  let failure = ref None in
  let pick ctx =
    if ctx.pc_k < !prefix_len then begin
      let cell = Hashtbl.find tbl ctx.pc_k in
      let c = cell.c_chosen in
      if not (List.mem c ctx.pc_enabled) then
        invalid_arg
          "Explore: program is not deterministic (forced choice not enabled)";
      (* siblings explored earlier go to sleep for this branch; a branch
         whose own choice is already asleep is redundant *)
      if cfg.dpor then
        IntSet.iter
          (fun d ->
            if d <> c then
              match Hashtbl.find_opt cell.c_foot d with
              | Some f -> ctx.pc_sleep_add d f
              | None -> ())
          cell.c_done;
      if ctx.pc_sleeping c then raise Prune_run;
      c
    end
    else default_pick ctx
  in
  let merge steps =
    List.iteri
      (fun k (s : step) ->
        if k < !len then
          Hashtbl.replace (Hashtbl.find tbl k).c_foot s.st_chosen s.st_foot
        else begin
          let cell =
            {
              c_enabled = s.st_enabled;
              c_chosen = s.st_chosen;
              c_done = IntSet.singleton s.st_chosen;
              c_backtrack =
                (if cfg.dpor then IntSet.empty
                 else IntSet.of_list s.st_enabled);
              c_foot = Hashtbl.create 4;
            }
          in
          Hashtbl.replace cell.c_foot s.st_chosen s.st_foot;
          Hashtbl.replace tbl k cell;
          incr len
        end)
      steps
  in
  let analyze steps =
    (* Flanagan–Godefroid backtrack updates, dscheck-style: for each step,
       the last earlier dependent step by another thread is a race; demand
       that the later thread be tried at the earlier point (or, if it was
       not enabled there, everything that was). *)
    if cfg.dpor then begin
      let arr = Array.of_list steps in
      let last : (int, int) Hashtbl.t = Hashtbl.create 64 in
      Array.iteri
        (fun j (s : step) ->
          let keys = Engine.key_thread s.st_chosen :: s.st_foot in
          let race =
            List.fold_left
              (fun acc key ->
                match Hashtbl.find_opt last key with
                | Some i when arr.(i).st_chosen <> s.st_chosen -> (
                    match acc with Some a when a >= i -> acc | _ -> Some i)
                | _ -> acc)
              None keys
          in
          (match race with
          | Some i ->
              let cell = Hashtbl.find tbl i in
              if List.mem s.st_chosen cell.c_enabled then
                cell.c_backtrack <- IntSet.add s.st_chosen cell.c_backtrack
              else
                cell.c_backtrack <-
                  IntSet.union cell.c_backtrack (IntSet.of_list cell.c_enabled)
          | None -> ());
          List.iter (fun key -> Hashtbl.replace last key j) keys)
        arr
    end
  in
  let select () =
    let rec go k =
      if k < 0 then false
      else
        let cell = Hashtbl.find tbl k in
        let pending = IntSet.diff cell.c_backtrack cell.c_done in
        if IntSet.is_empty pending then go (k - 1)
        else begin
          let c = IntSet.min_elt pending in
          cell.c_chosen <- c;
          cell.c_done <- IntSet.add c cell.c_done;
          for i = k + 1 to !len - 1 do
            Hashtbl.remove tbl i
          done;
          len := k + 1;
          prefix_len := k + 1;
          true
        end
    in
    go (!len - 1)
  in
  let rec driver () =
    if !runs >= cfg.max_runs then budget_stopped := true
    else begin
      incr runs;
      let steps, outcome = exec ~mk ~cfg ~pick () in
      let n = List.length steps in
      total_steps := !total_steps + n;
      if n > !max_depth then max_depth := n;
      merge steps;
      analyze steps;
      match outcome with
      | Failed_run kind -> failure := Some (make_failure ~cfg ~mk kind steps)
      | Completed | Pruned | Cut ->
          if outcome = Pruned then incr pruned;
          if outcome = Cut then incr cut;
          if select () then driver ()
    end
  in
  driver ();
  (* structured budget-exhaustion report: count the backtrack points the
     race analysis demanded but the run budget never let us explore.  When
     the budget stopped us, [select] had already marked one pending choice
     done without running it (and with [max_runs = 0] nothing ran at all) —
     either way that is one more unexplored frontier point. *)
  let frontier =
    Hashtbl.fold
      (fun _ c acc -> acc + IntSet.cardinal (IntSet.diff c.c_backtrack c.c_done))
      tbl 0
    + (if !budget_stopped then 1 else 0)
  in
  let exhausted =
    if frontier > 0 || !cut > 0 then
      Some { ex_frontier = frontier; ex_cut_runs = !cut }
    else None
  in
  {
    failure = !failure;
    stats =
      {
        runs = !runs;
        steps = !total_steps;
        max_depth = !max_depth;
        pruned = !pruned;
        complete = exhausted = None && !failure = None;
        exhausted;
      };
  }

(* ------------------------------------------------------------------ *)
(* Parallel exploration (frontier batches across domains)              *)
(* ------------------------------------------------------------------ *)

(* The work-queue protocol lives in {!Frontier}; this driver owns the
   budget, the statistics and the failure.  Each batch is executed with
   [Frontier.parallel_map] — every worker replays its decision prefix
   against a private engine built by [mk], seeding its sleep set from the
   item's snapshot — and merged back *sequentially, in batch order*, so
   the whole exploration (schedule set, counterexample, stats) is a pure
   function of the program, independent of the domain count. *)

let run_parallel ?(config = default_config) ?record ~domains mk =
  if domains < 1 then invalid_arg "Explore.run_parallel: domains must be >= 1";
  let cfg = config in
  let fr = Frontier.create ~dpor:cfg.dpor in
  let runs = ref 0 and total_steps = ref 0 in
  let max_depth = ref 0 and pruned = ref 0 and cut = ref 0 in
  let failure = ref None in
  let exec_item it =
    let prefix = Frontier.prefix it in
    let plen = Array.length prefix in
    let pick ctx =
      if ctx.pc_k < plen then begin
        (* siblings explored earlier go to sleep for this branch; a branch
           whose own choice is already asleep is redundant *)
        if cfg.dpor then
          List.iter
            (fun (t, f) -> ctx.pc_sleep_add t f)
            (Frontier.sleep_at it ctx.pc_k);
        let c = prefix.(ctx.pc_k) in
        if not (List.mem c ctx.pc_enabled) then
          invalid_arg
            "Explore: program is not deterministic (forced choice not \
             enabled)";
        if ctx.pc_sleeping c then raise Prune_run;
        c
      end
      else default_pick ctx
    in
    exec ~mk ~cfg ~pick ()
  in
  let continue_ = ref true in
  while !continue_ do
    let budget = cfg.max_runs - !runs in
    if budget <= 0 || Frontier.pending fr = 0 || !failure <> None then
      continue_ := false
    else begin
      let batch = Frontier.take_batch fr ~max:budget in
      let results = Frontier.parallel_map ~domains exec_item batch in
      Array.iter
        (fun (steps, run_end) ->
          (* merge in batch order; the first failure (in that order) wins
             and later batch members are discarded, exactly as with one
             domain *)
          if !failure = None then begin
            incr runs;
            let n = List.length steps in
            total_steps := !total_steps + n;
            if n > !max_depth then max_depth := n;
            (match record with Some f -> f (schedule_of steps) | None -> ());
            Frontier.integrate fr
              (Array.of_list
                 (List.map
                    (fun (s : step) ->
                      {
                        Frontier.fs_enabled = s.st_enabled;
                        fs_chosen = s.st_chosen;
                        fs_foot = s.st_foot;
                      })
                    steps));
            match run_end with
            | Failed_run kind ->
                failure := Some (make_failure ~cfg ~mk kind steps)
            | Pruned -> incr pruned
            | Cut -> incr cut
            | Completed -> ()
          end)
        results
    end
  done;
  let frontier = Frontier.pending fr in
  let exhausted =
    if frontier > 0 || !cut > 0 then
      Some { ex_frontier = frontier; ex_cut_runs = !cut }
    else None
  in
  {
    failure = !failure;
    stats =
      {
        runs = !runs;
        steps = !total_steps;
        max_depth = !max_depth;
        pruned = !pruned;
        complete = exhausted = None && !failure = None;
        exhausted;
      };
  }

let pp_stats ppf s =
  Format.fprintf ppf "%d run%s (%d pruned), %d steps, deepest %d, %s" s.runs
    (if s.runs = 1 then "" else "s")
    s.pruned s.steps s.max_depth
    (match (s.complete, s.exhausted) with
    | true, _ -> "exhaustive"
    | false, Some e when e.ex_frontier > 0 || e.ex_cut_runs > 0 ->
        Printf.sprintf "not exhaustive (%d frontier point%s left, %d run%s cut)"
          e.ex_frontier
          (if e.ex_frontier = 1 then "" else "s")
          e.ex_cut_runs
          (if e.ex_cut_runs = 1 then "" else "s")
    | false, _ -> "not exhaustive")
