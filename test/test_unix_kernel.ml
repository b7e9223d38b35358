open Tu
module K = Vm.Unix_kernel
module Clock = Vm.Clock
module Cost_model = Vm.Cost_model
module Sigset = Vm.Sigset

let mk () = K.create Cost_model.sparc_ipx

let test_trap_accounting () =
  let k = mk () in
  let t0 = K.now k in
  ignore (K.getpid k : int);
  ignore (K.getpid k : int);
  check int "two traps" 2 (K.trap_count k);
  check (Alcotest.list (Alcotest.pair string int)) "by name"
    [ ("getpid", 2) ] (K.trap_counts k);
  check int "cost charged" (2 * Cost_model.sparc_ipx.kernel_trap_ns)
    (K.now k - t0)

let test_sigsetmask () =
  let k = mk () in
  let old = K.sigsetmask k (Sigset.singleton Sigset.sigusr1) in
  check bool "previous empty" true (Sigset.is_empty old);
  check bool "mask set" true (Sigset.mem (K.proc_mask k) Sigset.sigusr1);
  check int "counted" 1 (K.sigsetmask_count k)

let catch_into cell =
  K.Catch
    {
      mask = Sigset.empty;
      fn = (fun ~signo ~code:_ ~origin:_ -> cell := signo :: !cell);
    }

let test_post_deliver () =
  let k = mk () in
  let got = ref [] in
  K.sigaction k Sigset.sigusr1 (catch_into got);
  K.post_signal k Sigset.sigusr1 ~origin:K.External ();
  check bool "deliverable" true (K.has_deliverable k);
  check bool "delivered" true (K.deliver_pending k);
  check (Alcotest.list int) "handler ran" [ Sigset.sigusr1 ] !got;
  check bool "queue drained" false (K.has_deliverable k)

let test_bsd_no_queueing () =
  let k = mk () in
  let got = ref [] in
  K.sigaction k Sigset.sigusr1 (catch_into got);
  K.post_signal k Sigset.sigusr1 ~origin:K.External ();
  K.post_signal k Sigset.sigusr1 ~origin:K.External ();
  check int "second lost" 1 (K.signals_lost k);
  ignore (K.deliver_pending k : bool);
  check int "only one delivery" 1 (List.length !got)

let test_mask_blocks_delivery () =
  let k = mk () in
  let got = ref [] in
  K.sigaction k Sigset.sigusr1 (catch_into got);
  ignore (K.sigsetmask k (Sigset.singleton Sigset.sigusr1) : Sigset.t);
  K.post_signal k Sigset.sigusr1 ~origin:K.External ();
  check bool "masked: not deliverable" false (K.has_deliverable k);
  ignore (K.sigsetmask k Sigset.empty : Sigset.t);
  check bool "unmasked: deliverable" true (K.has_deliverable k)

let test_handler_masking () =
  let k = mk () in
  let observed = ref Sigset.empty in
  K.sigaction k Sigset.sigusr1
    (K.Catch
       {
         mask = Sigset.singleton Sigset.sigusr2;
         fn = (fun ~signo:_ ~code:_ ~origin:_ -> observed := K.proc_mask k);
       });
  K.post_signal k Sigset.sigusr1 ~origin:K.External ();
  ignore (K.deliver_pending k : bool);
  check bool "signal itself masked in handler" true
    (Sigset.mem !observed Sigset.sigusr1);
  check bool "sigaction mask applied" true
    (Sigset.mem !observed Sigset.sigusr2);
  check bool "mask restored after sigreturn" true
    (Sigset.is_empty (K.proc_mask k))

let test_ignore_discards () =
  let k = mk () in
  K.sigaction k Sigset.sigusr1 K.Ignore;
  K.post_signal k Sigset.sigusr1 ~origin:K.External ();
  check bool "not deliverable" false (K.has_deliverable k);
  check bool "discarded from pending" true (Sigset.is_empty (K.pending k))

let test_default_kills () =
  let k = mk () in
  K.post_signal k Sigset.sigterm ~origin:K.External ();
  Alcotest.check_raises "default action"
    (K.Process_killed Sigset.sigterm)
    (fun () -> ignore (K.deliver_pending k : bool))

let test_timer_oneshot () =
  let k = mk () in
  K.sigaction k Sigset.sigalrm
    (K.Catch { mask = Sigset.empty; fn = (fun ~signo:_ ~code:_ ~origin:_ -> ()) });
  ignore
    (K.arm_timer k ~after_ns:1_000 ~interval_ns:0 ~signo:Sigset.sigalrm
       ~origin:(K.Timer 3)
      : K.timer);
  K.check_events k;
  check bool "not yet" true (Sigset.is_empty (K.pending k));
  check bool "next event known" true (K.next_event_time k <> max_int);
  K.advance k 2_000;
  K.check_events k;
  check bool "fired" true (Sigset.mem (K.pending k) Sigset.sigalrm);
  K.advance k 10_000;
  ignore (K.deliver_pending k : bool) |> ignore;
  (* one-shot: no rearm *)
  check bool "no next event" true (K.next_event_time k = max_int)

let test_timer_interval () =
  let k = mk () in
  let got = ref 0 in
  K.sigaction k Sigset.sigalrm
    (K.Catch
       { mask = Sigset.empty; fn = (fun ~signo:_ ~code:_ ~origin:_ -> incr got) });
  ignore
    (K.arm_timer k ~after_ns:1_000 ~interval_ns:1_000 ~signo:Sigset.sigalrm
       ~origin:K.Slice
      : K.timer);
  for _ = 1 to 3 do
    K.advance k 1_000;
    K.check_events k;
    ignore (K.deliver_pending k : bool)
  done;
  check bool "fired repeatedly" true (!got >= 2)

let test_timer_disarm () =
  let k = mk () in
  let id =
    K.arm_timer k ~after_ns:1_000 ~interval_ns:0 ~signo:Sigset.sigalrm
      ~origin:(K.Timer 1)
  in
  K.disarm_timer k id;
  K.advance k 5_000;
  K.check_events k;
  check bool "no signal" true (Sigset.is_empty (K.pending k))

let test_aio () =
  let k = mk () in
  K.submit_io k ~latency_ns:2_000 ~requester:7;
  K.check_events k;
  check bool "pending completion" true (K.next_event_time k <> max_int);
  K.advance k 3_000;
  K.check_events k;
  check bool "SIGIO posted" true (Sigset.mem (K.pending k) Sigset.sigio)

let test_shared_clock () =
  let clock = Clock.create () in
  let a = K.create ~clock Cost_model.sparc_ipx in
  let b = K.create ~clock Cost_model.sparc_ipx in
  K.advance a 500;
  check int "clock shared" 500 (K.now b)

let test_window_traps () =
  let k = mk () in
  let t0 = K.now k in
  K.flush_windows k;
  K.window_underflow k;
  check int "two window traps" 2 (K.window_trap_count k);
  check int "costs charged"
    Cost_model.(sparc_ipx.window_flush_ns + sparc_ipx.window_underflow_ns)
    (K.now k - t0)

let test_reset_counters () =
  let k = mk () in
  ignore (K.getpid k : int);
  K.reset_counters k;
  check int "traps reset" 0 (K.trap_count k)

let suite =
  [
    ( "vm.unix_kernel",
      [
        tc "trap accounting" test_trap_accounting;
        tc "sigsetmask" test_sigsetmask;
        tc "post/deliver" test_post_deliver;
        tc "BSD non-queuing" test_bsd_no_queueing;
        tc "mask blocks delivery" test_mask_blocks_delivery;
        tc "handler masking" test_handler_masking;
        tc "ignore discards" test_ignore_discards;
        tc "default kills" test_default_kills;
        tc "one-shot timer" test_timer_oneshot;
        tc "interval timer" test_timer_interval;
        tc "disarm timer" test_timer_disarm;
        tc "async I/O" test_aio;
        tc "shared clock" test_shared_clock;
        tc "window traps" test_window_traps;
        tc "reset counters" test_reset_counters;
      ] );
  ]
