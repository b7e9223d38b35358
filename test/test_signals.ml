(* The signal delivery model: recipient resolution (6 rules), action
   resolution (7 rules), fake calls, masks, sigwait, internal vs external
   paths. *)

open Tu
open Pthreads

let handler_into cell =
  Types.Sig_handler
    { h_mask = Sigset.empty; h_fn = (fun ~signo ~code:_ -> cell := signo :: !cell) }

(* Recipient rule 1: a directed signal goes to that thread. *)
let test_directed_delivery () =
  ignore
    (run_main (fun proc ->
         let got_by = ref None in
         Signal_api.set_action proc Sigset.sigusr1
           (Types.Sig_handler
              {
                h_mask = Sigset.empty;
                h_fn = (fun ~signo:_ ~code:_ -> got_by := Some (Pthread.self proc));
              });
         (* lower priority: still ready (not yet run) when the kill lands *)
         let t =
           Pthread.create_unit proc
             ~attr:(Attr.with_prio 3 Attr.default)
             (fun () -> Pthread.busy proc ~ns:50_000)
         in
         Signal_api.kill proc t Sigset.sigusr1;
         ignore (Pthread.join proc t);
         check (Alcotest.option int) "handler ran on the target" (Some t) !got_by;
         0));
  ()

(* Recipient rule 2: a synchronous signal goes to the thread that caused it. *)
let test_sync_delivery () =
  ignore
    (run_main (fun proc ->
         let got_by = ref None and got_code = ref 0 in
         Signal_api.set_action proc Sigset.sigfpe
           (Types.Sig_handler
              {
                h_mask = Sigset.empty;
                h_fn =
                  (fun ~signo:_ ~code ->
                    got_by := Some (Pthread.self proc);
                    got_code := code);
              });
         let t =
           Pthread.create_unit proc (fun () ->
               Signal_api.raise_sync proc ~code:42 Sigset.sigfpe)
         in
         ignore (Pthread.join proc t);
         check (Alcotest.option int) "delivered to the causer" (Some t) !got_by;
         (* the signal code distinguishes causes, as the Ada runtime needs *)
         check int "code preserved" 42 !got_code;
         0));
  ()

(* Recipient rule 3: a timer signal goes to the thread that armed it. *)
let test_timer_delivery_to_armer () =
  ignore
    (run_main (fun proc ->
         let got_by = ref None in
         Signal_api.set_action proc Sigset.sigusr2 (handler_into (ref []));
         ignore
           (Pthread.create_unit proc (fun () -> Pthread.busy proc ~ns:400_000));
         let armer =
           Pthread.create_unit proc (fun () ->
               (* SIGALRM with a Timer origin takes action rule 2 (wake), so
                  to observe the handler path we sleep through delivery *)
               ignore (Signal_api.set_timer proc ~after_ns:50_000 ());
               Pthread.busy proc ~ns:200_000;
               got_by := Some (Pthread.self proc))
         in
         ignore (Pthread.join proc armer);
         check bool "armer finished" true (!got_by <> None);
         0));
  ()

(* Recipient rule 4: an I/O completion goes to the requesting thread. *)
let test_aio_delivery_to_requester () =
  ignore
    (run_main (fun proc ->
         let got_by = ref None in
         Signal_api.set_action proc Sigset.sigio
           (Types.Sig_handler
              {
                h_mask = Sigset.empty;
                h_fn = (fun ~signo:_ ~code:_ -> got_by := Some (Pthread.self proc));
              });
         let requester =
           Pthread.create_unit proc (fun () ->
               Signal_api.aio_submit proc ~latency_ns:30_000;
               Pthread.busy proc ~ns:100_000)
         in
         (* another thread is also running and could have taken it *)
         let other =
           Pthread.create_unit proc (fun () -> Pthread.busy proc ~ns:100_000)
         in
         List.iter (fun t -> ignore (Pthread.join proc t)) [ requester; other ];
         check (Alcotest.option int) "SIGIO went to the requester"
           (Some requester) !got_by;
         0));
  ()

(* Recipient rule 5: an external signal goes to some thread with it
   unmasked — here only one qualifies. *)
let test_external_unmasked_thread () =
  ignore
    (run_main (fun proc ->
         let got_by = ref None in
         Signal_api.set_action proc Sigset.sigusr1
           (Types.Sig_handler
              {
                h_mask = Sigset.empty;
                h_fn = (fun ~signo:_ ~code:_ -> got_by := Some (Pthread.self proc));
              });
         (* main masks it; the worker leaves it open *)
         ignore (Signal_api.set_mask proc `Block (Sigset.singleton Sigset.sigusr1));
         let t =
           Pthread.create_unit proc
             ~attr:(Attr.with_prio 3 Attr.default)
             (fun () -> Pthread.busy proc ~ns:100_000)
         in
         Signal_api.send_to_process proc Sigset.sigusr1;
         ignore (Pthread.join proc t);
         check (Alcotest.option int) "demultiplexed to the open thread"
           (Some t) !got_by;
         0));
  ()

(* Recipient rule 6: with every thread masking the signal, it pends on the
   process until a thread becomes eligible. *)
let test_proc_pending_until_eligible () =
  ignore
    (run_main (fun proc ->
         let hits = ref [] in
         Signal_api.set_action proc Sigset.sigusr1 (handler_into hits);
         ignore (Signal_api.set_mask proc `Block (Sigset.singleton Sigset.sigusr1));
         Signal_api.send_to_process proc Sigset.sigusr1;
         Pthread.busy proc ~ns:20_000;
         check int "nothing delivered" 0 (List.length !hits);
         check bool "pending on the process" true
           (Sigset.mem (Signal_api.process_pending proc) Sigset.sigusr1);
         ignore (Signal_api.set_mask proc `Unblock (Sigset.singleton Sigset.sigusr1));
         check int "delivered on unmask" 1 (List.length !hits);
         0));
  ()

(* Action rule 1: a signal directed at a thread that masks it pends on the
   thread and is delivered when unmasked. *)
let test_thread_pending_until_unmask () =
  ignore
    (run_main (fun proc ->
         let hits = ref [] in
         Signal_api.set_action proc Sigset.sigusr2 (handler_into hits);
         ignore (Signal_api.set_mask proc `Block (Sigset.singleton Sigset.sigusr2));
         Signal_api.kill proc (Pthread.self proc) Sigset.sigusr2;
         check int "pended" 0 (List.length !hits);
         check bool "on the thread" true
           (Sigset.mem (Signal_api.thread_pending proc) Sigset.sigusr2);
         ignore (Signal_api.set_mask proc `Unblock (Sigset.singleton Sigset.sigusr2));
         check int "delivered" 1 (List.length !hits);
         0));
  ()

(* Action rule 4: the fake-call wrapper masks the signal (plus sigaction's
   mask) during the handler and restores errno and mask after. *)
let test_wrapper_mask_and_errno () =
  ignore
    (run_main (fun proc ->
         let in_handler_mask = ref Sigset.empty in
         Signal_api.set_action proc Sigset.sigusr1
           (Types.Sig_handler
              {
                h_mask = Sigset.singleton Sigset.sigusr2;
                h_fn =
                  (fun ~signo:_ ~code:_ -> in_handler_mask := Signal_api.mask proc);
              });
         let before = Signal_api.mask proc in
         Signal_api.kill proc (Pthread.self proc) Sigset.sigusr1;
         check bool "signal masked during handler" true
           (Sigset.mem !in_handler_mask Sigset.sigusr1);
         check bool "sigaction mask applied" true
           (Sigset.mem !in_handler_mask Sigset.sigusr2);
         check bool "mask restored" true (Sigset.equal before (Signal_api.mask proc));
         0));
  ()

let test_nested_handler_same_signal_deferred () =
  ignore
    (run_main (fun proc ->
         let depth = ref 0 and max_depth = ref 0 and sent = ref false in
         Signal_api.set_action proc Sigset.sigusr1
           (Types.Sig_handler
              {
                h_mask = Sigset.empty;
                h_fn =
                  (fun ~signo:_ ~code:_ ->
                    incr depth;
                    max_depth := max !max_depth !depth;
                    (* the wrapper masks SIGUSR1: this pends on the thread *)
                    if not !sent then begin
                      sent := true;
                      Signal_api.kill proc (Pthread.self proc) Sigset.sigusr1
                    end;
                    decr depth);
              });
         Signal_api.kill proc (Pthread.self proc) Sigset.sigusr1;
         Pthread.busy proc ~ns:10_000;
         check int "no nesting of the same signal" 1 !max_depth;
         0));
  ()

(* Action rule 6/7: ignore discards; default terminates the process. *)
let test_ignore_action () =
  ignore
    (run_main (fun proc ->
         Signal_api.set_action proc Sigset.sigusr1 Types.Sig_ignore;
         Signal_api.kill proc (Pthread.self proc) Sigset.sigusr1;
         Pthread.busy proc ~ns:10_000;
         0));
  ()

let test_default_action_kills_process () =
  match
    Pthread.run (fun proc ->
        Signal_api.kill proc (Pthread.self proc) Sigset.sigterm;
        Pthread.busy proc ~ns:10_000;
        0)
  with
  | exception Types.Process_stopped (Types.Killed_by_signal s) ->
      check int "killed by SIGTERM" Sigset.sigterm s
  | _ -> Alcotest.fail "expected Process_stopped"

let test_external_default_kills_process () =
  match
    Pthread.run (fun proc ->
        Signal_api.send_to_process proc Sigset.sigint;
        Pthread.busy proc ~ns:10_000;
        0)
  with
  | exception Types.Process_stopped (Types.Killed_by_signal s) ->
      check int "killed by SIGINT" Sigset.sigint s
  | _ -> Alcotest.fail "expected Process_stopped"

(* sigwait *)
let test_sigwait_blocking () =
  ignore
    (run_main (fun proc ->
         let t =
           Pthread.create proc (fun () ->
               Signal_api.sigwait proc (Sigset.singleton Sigset.sigusr1))
         in
         Pthread.yield proc;
         Signal_api.kill proc t Sigset.sigusr1;
         (match Pthread.join proc t with
         | Types.Exited s -> check int "returned the signal" Sigset.sigusr1 s
         | st -> Alcotest.failf "got %a" Types.pp_exit_status st);
         0));
  ()

let test_sigwait_consumes_thread_pending () =
  ignore
    (run_main (fun proc ->
         ignore (Signal_api.set_mask proc `Block (Sigset.singleton Sigset.sigusr1));
         Signal_api.kill proc (Pthread.self proc) Sigset.sigusr1;
         (* already pended on the thread: sigwait returns immediately *)
         let s = Signal_api.sigwait proc (Sigset.singleton Sigset.sigusr1) in
         check int "consumed pended signal" Sigset.sigusr1 s;
         check bool "no longer pending" false
           (Sigset.mem (Signal_api.thread_pending proc) Sigset.sigusr1);
         0));
  ()

let test_sigwait_consumes_proc_pending () =
  ignore
    (run_main (fun proc ->
         ignore (Signal_api.set_mask proc `Block (Sigset.singleton Sigset.sigusr2));
         Signal_api.send_to_process proc Sigset.sigusr2;
         Pthread.busy proc ~ns:10_000;
         check bool "pending on process" true
           (Sigset.mem (Signal_api.process_pending proc) Sigset.sigusr2);
         let s = Signal_api.sigwait proc (Sigset.singleton Sigset.sigusr2) in
         check int "consumed" Sigset.sigusr2 s;
         0));
  ()

let test_sigwait_external () =
  ignore
    (run_main (fun proc ->
         (* the sigwaiting thread counts as having the signal unmasked for
            the rule-5 search even though its mask blocks it *)
         let t =
           Pthread.create proc (fun () ->
               ignore
                 (Signal_api.set_mask proc `Block (Sigset.singleton Sigset.sigusr1));
               Signal_api.sigwait proc (Sigset.singleton Sigset.sigusr1))
         in
         ignore (Signal_api.set_mask proc `Block (Sigset.singleton Sigset.sigusr1));
         Pthread.yield proc;
         Signal_api.send_to_process proc Sigset.sigusr1;
         (match Pthread.join proc t with
         | Types.Exited s -> check int "sigwait got it" Sigset.sigusr1 s
         | st -> Alcotest.failf "got %a" Types.pp_exit_status st);
         0));
  ()

(* The paper: exactly two sigsetmask kernel calls per external signal. *)
let test_two_sigsetmask_per_external_signal () =
  let stats =
    run_stats (fun proc ->
        Signal_api.set_action proc Sigset.sigusr1 (handler_into (ref []));
        Signal_api.send_to_process proc Sigset.sigusr1;
        Pthread.busy proc ~ns:10_000;
        Signal_api.send_to_process proc Sigset.sigusr1;
        Pthread.busy proc ~ns:10_000;
        0)
  in
  check int "2 sigsetmask per signal" 4 stats.Engine.sigsetmask_calls

(* Internal signals must not touch the UNIX kernel at all. *)
let test_internal_path_no_unix () =
  ignore
    (run_main (fun proc ->
         let hits = ref [] in
         Signal_api.set_action proc Sigset.sigusr1 (handler_into hits);
         (* higher priority; blocks in delay, so it is alive and suspended
            when the directed signal arrives *)
         let t =
           Pthread.create_unit proc
             ~attr:(Attr.with_prio 25 Attr.default)
             (fun () -> Pthread.delay proc ~ns:200_000)
         in
         Pthread.reset_stats proc;
         Signal_api.kill proc t Sigset.sigusr1;
         let stats = Pthread.stats proc in
         check int "handler already ran" 1 (List.length !hits);
         check int "no UNIX deliveries" 0 stats.Engine.signals_delivered_unix;
         check int "no sigsetmask" 0 stats.Engine.sigsetmask_calls;
         check int "one handler run" 1 stats.Engine.thread_handler_runs;
         ignore (Pthread.join proc t);
         0));
  ()

(* Handlers run at the receiving thread's priority: a handler on a
   lower-priority thread must not run while a higher-priority thread can. *)
let test_handler_at_thread_priority () =
  ignore
    (run_main ~main_prio:20 (fun proc ->
         let order = ref [] in
         Signal_api.set_action proc Sigset.sigusr1
           (Types.Sig_handler
              {
                h_mask = Sigset.empty;
                h_fn = (fun ~signo:_ ~code:_ -> order := `Handler :: !order);
              });
         let lo =
           Pthread.create_unit proc
             ~attr:(Attr.with_prio 3 Attr.default)
             (fun () -> Pthread.busy proc ~ns:50_000)
         in
         Pthread.yield proc;
         Signal_api.kill proc lo Sigset.sigusr1;
         order := `Main_continues :: !order;
         ignore (Pthread.join proc lo);
         check bool "handler deferred until the low thread runs" true
           (List.rev !order = [ `Main_continues; `Handler ]);
         0));
  ()

(* A handler can redirect control with longjmp — the implementation-defined
   feature the Ada runtime needs. *)
let test_handler_longjmp_redirect () =
  ignore
    (run_main (fun proc ->
         let result =
           Jmp.catch proc (fun buf ->
               Signal_api.set_action proc Sigset.sigfpe
                 (Types.Sig_handler
                    {
                      h_mask = Sigset.empty;
                      h_fn = (fun ~signo:_ ~code -> Jmp.longjmp proc buf code);
                    });
               Signal_api.raise_sync proc ~code:7 Sigset.sigfpe;
               Alcotest.fail "control must not reach here")
         in
         (match result with
         | Jmp.Jumped 7 -> ()
         | _ -> Alcotest.fail "expected Jumped 7");
         0));
  ()

let test_handler_interrupts_sleep () =
  ignore
    (run_main (fun proc ->
         let hit = ref false in
         Signal_api.set_action proc Sigset.sigusr1
           (Types.Sig_handler
              { h_mask = Sigset.empty; h_fn = (fun ~signo:_ ~code:_ -> hit := true) });
         let sleeper =
           Pthread.create_unit proc
             ~attr:(Attr.with_prio 20 Attr.default)
             (fun () -> Pthread.delay proc ~ns:10_000_000)
         in
         Pthread.yield proc;
         let t0 = Pthread.now proc in
         Signal_api.kill proc sleeper Sigset.sigusr1;
         Pthread.busy proc ~ns:10_000;
         check bool "handler ran promptly" true !hit;
         check bool "did not wait the full sleep" true
           (Pthread.now proc - t0 < 5_000_000);
         ignore (Pthread.join proc sleeper);
         0));
  ()

let test_set_action_rejects_sigcancel () =
  ignore
    (run_main (fun proc ->
         (try
            Signal_api.set_action proc Sigset.sigcancel Types.Sig_ignore;
            Alcotest.fail "must reject SIGCANCEL"
          with Invalid_argument _ -> ());
         0));
  ()

(* Action rule 4 for the SIGIO doorbell's fallback: a task await, like a
   mutex wait, is not an interruption point, so a SIGIO handler installed
   on a thread blocked in [Shard.await] runs when the await returns, not
   when the I/O completes. *)
let test_sigio_handler_keeps_shard_await () =
  ignore
    (run_main (fun proc ->
         let ran_at = ref None in
         Signal_api.set_action proc Sigset.sigio
           (Types.Sig_handler
              {
                h_mask = Sigset.empty;
                h_fn = (fun ~signo:_ ~code:_ -> ran_at := Some (Pthread.now proc));
              });
         let t0 = Pthread.now proc in
         Signal_api.aio_submit proc ~latency_ns:1_000_000;
         let task =
           Shard.spawn proc (fun p ->
               Pthread.delay p ~ns:10_000_000;
               7)
         in
         (match Shard.await proc task with
         | Types.Exited 7 -> ()
         | _ -> Alcotest.fail "await returned the wrong status");
         let returned = Pthread.now proc - t0 in
         (match !ran_at with
         | None -> Alcotest.fail "the SIGIO handler never ran"
         | Some at ->
             check bool
               (Printf.sprintf "handler ran after the task (%d ns >= 10 ms)"
                  (at - t0))
               true
               (at - t0 >= 10_000_000));
         check bool "await lasted the task" true (returned >= 10_000_000);
         0));
  ()

let suite =
  [
    ( "signals",
      [
        tc "rule 1: directed" test_directed_delivery;
        tc "rule 2: synchronous to causer" test_sync_delivery;
        tc "rule 3: timer to armer" test_timer_delivery_to_armer;
        tc "rule 4: I/O to requester" test_aio_delivery_to_requester;
        tc "rule 5: unmasked thread" test_external_unmasked_thread;
        tc "rule 6: pend on process" test_proc_pending_until_eligible;
        tc "action 1: pend on thread" test_thread_pending_until_unmask;
        tc "wrapper mask/errno" test_wrapper_mask_and_errno;
        tc "no same-signal nesting" test_nested_handler_same_signal_deferred;
        tc "action 6: ignore" test_ignore_action;
        tc "action 7: default kills" test_default_action_kills_process;
        tc "external default kills" test_external_default_kills_process;
        tc "sigwait blocking" test_sigwait_blocking;
        tc "sigwait thread-pended" test_sigwait_consumes_thread_pending;
        tc "sigwait proc-pended" test_sigwait_consumes_proc_pending;
        tc "sigwait external" test_sigwait_external;
        tc "2 sigsetmask per signal" test_two_sigsetmask_per_external_signal;
        tc "internal path avoids UNIX" test_internal_path_no_unix;
        tc "handler at thread priority" test_handler_at_thread_priority;
        tc "handler longjmp redirect" test_handler_longjmp_redirect;
        tc "handler interrupts sleep" test_handler_interrupts_sleep;
        tc "SIGCANCEL protected" test_set_action_rejects_sigcancel;
        tc "a SIGIO handler does not interrupt a Shard await"
          test_sigio_handler_keeps_shard_await;
      ] );
  ]
