(* The debugging toolchain: validator, debugger, trace statistics. *)

open Tu
open Pthreads
module Trace_stats = Vm.Trace_stats

let test_validator_clean_run () =
  let proc =
    Pthread.make_proc ~trace:true (fun proc ->
        let m = Mutex.create proc () in
        let ts =
          List.init 3 (fun _ ->
              Pthread.create_unit proc (fun () ->
                  for _ = 1 to 5 do
                    Mutex.lock proc m;
                    Pthread.busy proc ~ns:3_000;
                    Mutex.unlock proc m;
                    Pthread.yield proc
                  done))
        in
        List.iter (fun t -> ignore (Pthread.join proc t)) ts;
        0)
  in
  let mon = Validate.install proc in
  Pthread.start proc;
  check (Alcotest.list string) "no live violations" []
    (List.map (fun v -> v.Validate.rule) (Validate.violations mon));
  check bool "checks actually ran" true (Validate.checks_performed mon > 5);
  check (Alcotest.list string) "trace audit clean" []
    (List.map (fun v -> v.Validate.rule)
       (Validate.audit_trace (Pthread.trace_events proc)))

let test_validator_under_all_policies () =
  List.iter
    (fun policy ->
      let proc =
        Pthread.make_proc ~trace:true ~perverted:policy ~seed:3 (fun proc ->
            let m = Mutex.create proc ~protocol:Types.Inherit_protocol () in
            let body () =
              for _ = 1 to 4 do
                Mutex.lock proc m;
                Pthread.busy proc ~ns:2_000;
                Mutex.unlock proc m
              done
            in
            let ts = List.init 3 (fun _ -> Pthread.create_unit proc body) in
            List.iter (fun t -> ignore (Pthread.join proc t)) ts;
            0)
      in
      let mon = Validate.install proc in
      Pthread.start proc;
      check (Alcotest.list string) "no violations under policy" []
        (List.map (fun v -> v.Validate.rule) (Validate.violations mon));
      check (Alcotest.list string) "trace audit clean" []
        (List.map (fun v -> v.Validate.rule)
           (Validate.audit_trace (Pthread.trace_events proc))))
    [ Types.No_perversion; Types.Mutex_switch; Types.Rr_ordered_switch;
      Types.Random_switch ]

let test_auditor_flags_bad_trace () =
  (* hand-craft a trace violating mutual exclusion *)
  let t = Vm.Trace.create () in
  Vm.Trace.set_enabled t true;
  Vm.Trace.record t ~t_ns:0 ~tid:1 ~tname:"a" Vm.Trace.Dispatch_in;
  Vm.Trace.record t ~t_ns:10 ~tid:1 ~tname:"a" (Vm.Trace.Mutex_lock "m");
  Vm.Trace.record t ~t_ns:20 ~tid:1 ~tname:"a" Vm.Trace.Dispatch_out;
  Vm.Trace.record t ~t_ns:30 ~tid:2 ~tname:"b" Vm.Trace.Dispatch_in;
  Vm.Trace.record t ~t_ns:40 ~tid:2 ~tname:"b" (Vm.Trace.Mutex_lock "m");
  let vs = Validate.audit_trace (Vm.Trace.events t) in
  check bool "mutual exclusion flagged" true
    (List.exists (fun v -> v.Validate.rule = "mutual-exclusion") vs)

let test_auditor_flags_double_dispatch () =
  let t = Vm.Trace.create () in
  Vm.Trace.set_enabled t true;
  Vm.Trace.record t ~t_ns:0 ~tid:1 ~tname:"a" Vm.Trace.Dispatch_in;
  Vm.Trace.record t ~t_ns:10 ~tid:2 ~tname:"b" Vm.Trace.Dispatch_in;
  let vs = Validate.audit_trace (Vm.Trace.events t) in
  check bool "uniprocessor rule flagged" true
    (List.exists (fun v -> v.Validate.rule = "uniprocessor") vs)

let test_debugger_inspect () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc ~name:"held" () in
         Mutex.lock proc m;
         Cleanup.push proc (fun () -> ());
         let sleeper =
           Pthread.create_unit proc
             ~attr:(Attr.with_prio 3 (Attr.with_name "sleeper" Attr.default))
             (fun () -> Pthread.delay proc ~ns:500_000)
         in
         Pthread.delay proc ~ns:50_000;
         (match Debugger.inspect proc (Pthread.self proc) with
         | None -> Alcotest.fail "main not found"
         | Some ti ->
             check string "name" "main" ti.Debugger.ti_name;
             check (Alcotest.list string) "held mutexes" [ "held" ]
               ti.Debugger.ti_held_mutexes;
             check int "cleanup depth" 1 ti.Debugger.ti_cleanup_depth;
             check string "state" "running" ti.Debugger.ti_state);
         (match Debugger.inspect proc sleeper with
         | None -> Alcotest.fail "sleeper not found"
         | Some ti ->
             check string "sleeping" "sleeping" ti.Debugger.ti_state;
             check int "prio" 3 ti.Debugger.ti_prio);
         check int "two threads listed" 2
           (List.length (Debugger.all_threads proc));
         let listing = Format.asprintf "%a" Debugger.pp_process proc in
         let contains s sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         check bool "listing mentions sleeper" true (contains listing "sleeper");
         Mutex.unlock proc m;
         Cleanup.pop proc ~execute:false;
         ignore (Pthread.join proc sleeper);
         0));
  ()

let test_debugger_switch_visibility () =
  let proc =
    Pthread.make_proc (fun proc ->
        let t =
          Pthread.create_unit proc
            ~attr:(Attr.with_name "peer" Attr.default)
            (fun () -> for _ = 1 to 3 do Pthread.yield proc done)
        in
        for _ = 1 to 3 do Pthread.yield proc done;
        ignore (Pthread.join proc t);
        0)
  in
  let get_switches = Debugger.collect_switches proc in
  Pthread.start proc;
  let switches = get_switches () in
  check bool "switches observed" true (List.length switches >= 6);
  check bool "both threads appear" true
    (List.exists (fun e -> e.Debugger.sw_name = "peer") switches
    && List.exists (fun e -> e.Debugger.sw_name = "main") switches);
  (* timestamps are monotone *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Debugger.sw_at_ns <= b.Debugger.sw_at_ns && monotone rest
    | _ -> true
  in
  check bool "monotone timestamps" true (monotone switches)

(* Switch events fire *before* the dispatch commits: the incoming thread
   is still Ready and not yet [Engine.current], so a subscriber can veto
   or redirect the decision (see Types.Switch_in). *)
let test_switch_hooks_fire_before_commit () =
  let observed = ref 0 in
  let bad = ref [] in
  let proc =
    Pthread.make_proc (fun proc ->
        let t = Pthread.create_unit proc (fun () -> Pthread.yield proc) in
        Pthread.yield proc;
        ignore (Pthread.join proc t);
        0)
  in
  Engine.subscribe proc (function
    | Types.Switch_in t ->
        incr observed;
        if t.Types.state <> Types.Ready then
          bad := Types.state_name t.Types.state :: !bad;
        if Engine.current proc == t && t.Types.state = Types.Running then
          bad := "already committed" :: !bad
    | _ -> ());
  Pthread.start proc;
  check bool "hook saw dispatches" true (!observed >= 2);
  check (Alcotest.list string) "incoming thread still Ready at hook time" []
    !bad

exception Vetoed

let test_switch_hook_can_veto () =
  (* a hook that raises aborts the dispatch: the exception surfaces out of
     the run before the target thread ever becomes current *)
  let proc =
    Pthread.make_proc (fun proc ->
        let t = Pthread.create_unit proc (fun () -> ()) in
        ignore (Pthread.join proc t);
        0)
  in
  Engine.subscribe proc (function
    | Types.Switch_in t when t.Types.tname <> "main" -> raise Vetoed
    | _ -> ());
  (try
     Pthread.start proc;
     Alcotest.fail "vetoing hook must abort the run"
   with Vetoed -> ());
  ()

let test_trace_stats_accounting () =
  let proc =
    Pthread.make_proc ~trace:true (fun proc ->
        let m = Mutex.create proc () in
        Mutex.lock proc m;
        let worker =
          Pthread.create_unit proc
            ~attr:(Attr.with_name "worker" Attr.default)
            (fun () ->
              Mutex.lock proc m;
              Pthread.busy proc ~ns:100_000;
              Mutex.unlock proc m)
        in
        Pthread.delay proc ~ns:200_000;
        Mutex.unlock proc m;
        ignore (Pthread.join proc worker);
        0)
  in
  Pthread.start proc;
  let reports = Trace_stats.per_thread (Pthread.trace_events proc) in
  check int "two threads" 2 (List.length reports);
  let worker = List.find (fun r -> r.Trace_stats.name = "worker") reports in
  check bool "worker cpu >= its busy work" true
    (worker.Trace_stats.cpu_ns >= 100_000);
  check bool "worker blocked on the mutex a while" true
    (worker.Trace_stats.mutex_blocked_ns >= 150_000);
  check int "worker locked once" 1 worker.Trace_stats.lock_acquisitions;
  check bool "total cpu positive" true (Trace_stats.total_cpu_ns reports > 0);
  let table = Format.asprintf "%a" Trace_stats.pp reports in
  check bool "table renders" true (String.length table > 40)

let test_wait_for_graph_detects_partial_deadlock () =
  let detected = ref None in
  (match
     Pthread.run (fun proc ->
         let m1 = Mutex.create proc ~name:"g1" () in
         let m2 = Mutex.create proc ~name:"g2" () in
         (* two threads deadlock each other; main keeps running and can
            diagnose them with the wait-for graph *)
         ignore
           (Pthread.create_unit proc
              ~attr:(Attr.with_name "A" Attr.default)
              (fun () ->
                Mutex.lock proc m1;
                Pthread.delay proc ~ns:50_000;
                Mutex.lock proc m2;
                Mutex.unlock proc m2;
                Mutex.unlock proc m1));
         ignore
           (Pthread.create_unit proc
              ~attr:(Attr.with_name "B" Attr.default)
              (fun () ->
                Mutex.lock proc m2;
                Pthread.delay proc ~ns:50_000;
                Mutex.lock proc m1;
                Mutex.unlock proc m1;
                Mutex.unlock proc m2));
         Pthread.delay proc ~ns:300_000;
         detected := Some (Debugger.find_deadlocks proc, Debugger.wait_edges proc);
         (* main exits; the doomed pair then trips the engine's own
            whole-process deadlock detection *)
         0)
   with
  | exception Types.Process_stopped (Types.Deadlock _) -> ()
  | _ -> Alcotest.fail "expected the stranded pair to deadlock the process");
  match !detected with
  | None -> Alcotest.fail "diagnosis did not run"
  | Some (cycles, edges) ->
      check int "one cycle" 1 (List.length cycles);
      let names =
        List.map (fun (ti, _) -> ti.Debugger.ti_name) (List.hd cycles)
        |> List.sort compare
      in
      check (Alcotest.list string) "both threads in the cycle" [ "A"; "B" ] names;
      check int "two wait edges" 2 (List.length edges);
      let report = Format.asprintf "%a" Debugger.pp_deadlocks cycles in
      let contains str sub =
        let n = String.length str and m = String.length sub in
        let rec go i = i + m <= n && (String.sub str i m = sub || go (i + 1)) in
        go 0
      in
      check bool "report names a mutex" true
        (contains report "g1" || contains report "g2")

let test_wait_for_graph_clean_when_no_cycle () =
  ignore
    (run_main (fun proc ->
         let m = Mutex.create proc () in
         Mutex.lock proc m;
         let w =
           Pthread.create_unit proc (fun () ->
               Mutex.lock proc m;
               Mutex.unlock proc m)
         in
         Pthread.delay proc ~ns:50_000;
         (* one waiter, no cycle *)
         check int "an edge exists" 1 (List.length (Debugger.wait_edges proc));
         check int "no cycles" 0 (List.length (Debugger.find_deadlocks proc));
         check string "pp says none" "no deadlock cycles"
           (Format.asprintf "%a" Debugger.pp_deadlocks
              (Debugger.find_deadlocks proc));
         Mutex.unlock proc m;
         ignore (Pthread.join proc w);
         0));
  ()

let suite =
  [
    ( "validate",
      [
        tc "clean run" test_validator_clean_run;
        tc "all policies" test_validator_under_all_policies;
        tc "auditor flags bad lock" test_auditor_flags_bad_trace;
        tc "auditor flags double dispatch" test_auditor_flags_double_dispatch;
      ] );
    ( "debugger",
      [
        tc "inspect TCBs" test_debugger_inspect;
        tc "switch visibility" test_debugger_switch_visibility;
        tc "hooks fire pre-commit" test_switch_hooks_fire_before_commit;
        tc "hooks can veto a dispatch" test_switch_hook_can_veto;
        tc "wait-for graph: cycle" test_wait_for_graph_detects_partial_deadlock;
        tc "wait-for graph: clean" test_wait_for_graph_clean_when_no_cycle;
      ] );
    ( "trace_stats", [ tc "accounting" test_trace_stats_accounting ] );
  ]

