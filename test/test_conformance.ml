(* A conformance battery: one place asserting the documented behaviour of
   every public entry point — success postconditions and error conditions —
   in the style of a POSIX assertion suite.  Fine-grained behaviours are
   covered in the per-module suites; this file checks the contract
   surface. *)

open Tu
open Pthreads

let in_proc f = ignore (run_main (fun proc -> f proc; 0))

(* --- Pthread --- *)

let test_pthread_contracts () =
  in_proc (fun proc ->
      (* self is stable and equal to itself *)
      check bool "self = self" true
        (Pthread.equal (Pthread.self proc) (Pthread.self proc));
      (* create returns distinct ids *)
      let a = Pthread.create proc (fun () -> 0) in
      let b = Pthread.create proc (fun () -> 0) in
      check bool "distinct tids" true (not (Pthread.equal a b));
      (* joining both works in any order *)
      ignore (Pthread.join proc b);
      ignore (Pthread.join proc a);
      (* now unknown *)
      (try
         ignore (Pthread.join proc a);
         Alcotest.fail "reaped tid must be unknown"
       with Types.Error (Errno.ESRCH, _) -> ());
      (* state_of/name_of of unknown ids are None *)
      check (Alcotest.option string) "state None" None (Pthread.state_of proc a);
      check (Alcotest.option string) "name None" None (Pthread.name_of proc a);
      (* now is monotone *)
      let t1 = Pthread.now proc in
      Pthread.busy proc ~ns:1_000;
      check bool "time monotone" true (Pthread.now proc > t1))

let test_priority_contracts () =
  in_proc (fun proc ->
      let self = Pthread.self proc in
      check int "default priority" Types.default_prio
        (Pthread.get_priority proc self);
      Pthread.set_priority proc self 12;
      check int "set/get" 12 (Pthread.get_priority proc self);
      check int "base follows" 12 (Pthread.get_base_priority proc self);
      (* bounds *)
      List.iter
        (fun p ->
          try
            Pthread.set_priority proc self p;
            Alcotest.fail "out of range accepted"
          with Types.Error (Errno.EINVAL, _) -> ())
        [ -1; Types.max_prio + 1 ];
      (* unknown thread is a silent no-op for set, an error for get *)
      Pthread.set_priority proc 4242 5;
      (try
         ignore (Pthread.get_priority proc 4242);
         Alcotest.fail "unknown get must raise"
       with Types.Error (Errno.ESRCH, _) -> ()))

let test_once_contract () =
  in_proc (fun proc ->
      let c1 = Pthread.once_init () and c2 = Pthread.once_init () in
      let n = ref 0 in
      Pthread.once proc c1 (fun () -> incr n);
      Pthread.once proc c1 (fun () -> incr n);
      Pthread.once proc c2 (fun () -> incr n);
      check int "one per control" 2 !n)

(* --- Mutex --- *)

let test_mutex_contracts () =
  in_proc (fun proc ->
      let m = Mutex.create proc ~name:"conf" () in
      check bool "fresh unlocked" false (Mutex.is_locked m);
      check (Alcotest.option int) "no owner" None (Mutex.owner_tid m);
      check int "no waiters" 0 (Mutex.waiter_count m);
      check int "no locks yet" 0 (Mutex.lock_count m);
      Mutex.lock proc m;
      check (Alcotest.option int) "owner recorded atomically" (Some 0)
        (Mutex.owner_tid m);
      check int "count" 1 (Mutex.lock_count m);
      Mutex.unlock proc m;
      (* try_lock takes and holds *)
      check bool "trylock" true (Mutex.try_lock proc m);
      check bool "locked" true (Mutex.is_locked m);
      Mutex.unlock proc m;
      (* protocols validate at creation *)
      (try
         ignore (Mutex.create proc ~protocol:Types.Ceiling_protocol ~ceiling:(-1) ());
         Alcotest.fail "bad ceiling accepted"
       with Types.Error (Errno.EINVAL, _) -> ()))

(* --- Cond --- *)

let test_cond_contracts () =
  in_proc (fun proc ->
      let m = Mutex.create proc () in
      let c = Cond.create proc () in
      check int "no waiters" 0 (Cond.waiter_count c);
      (* signal/broadcast on empty are no-ops *)
      Cond.signal proc c;
      Cond.broadcast proc c;
      (* timed wait enforces ownership too *)
      (try
         ignore (Cond.wait_until proc c m ~deadline_ns:(Pthread.now proc + 10));
         Alcotest.fail "timed wait without mutex"
       with Types.Error (Errno.EPERM, _) -> ()))

(* --- Signal_api --- *)

let test_signal_contracts () =
  in_proc (fun proc ->
      (* get_action round trip *)
      let h =
        Types.Sig_handler { h_mask = Sigset.empty; h_fn = (fun ~signo:_ ~code:_ -> ()) }
      in
      Signal_api.set_action proc Sigset.sigusr1 h;
      (match Signal_api.get_action proc Sigset.sigusr1 with
      | Types.Sig_handler _ -> ()
      | _ -> Alcotest.fail "get_action");
      Signal_api.set_action proc Sigset.sigusr1 Types.Sig_ignore;
      check bool "ignore installed" true
        (Signal_api.get_action proc Sigset.sigusr1 = Types.Sig_ignore);
      (* masks: set returns previous *)
      let prev = Signal_api.set_mask proc `Set (Sigset.singleton Sigset.sighup) in
      check bool "prev empty" true (Sigset.is_empty prev);
      let prev2 = Signal_api.set_mask proc `Block (Sigset.singleton Sigset.sigusr2) in
      check bool "prev has hup" true (Sigset.mem prev2 Sigset.sighup);
      check bool "both now" true
        (Sigset.mem (Signal_api.mask proc) Sigset.sigusr2
        && Sigset.mem (Signal_api.mask proc) Sigset.sighup);
      ignore (Signal_api.set_mask proc `Unblock (Sigset.singleton Sigset.sighup));
      check bool "unblocked" false
        (Sigset.mem (Signal_api.mask proc) Sigset.sighup);
      (* pending sets empty in quiescence *)
      ignore (Signal_api.set_mask proc `Set Sigset.empty);
      check bool "no thread-pending" true
        (Sigset.is_empty (Signal_api.thread_pending proc));
      check bool "no proc-pending" true
        (Sigset.is_empty (Signal_api.process_pending proc));
      (* timers can be cancelled before firing *)
      let id = Signal_api.set_timer proc ~after_ns:10_000_000 () in
      Signal_api.cancel_timer proc id;
      Pthread.busy proc ~ns:20_000)

(* --- Cancel / Cleanup / Tsd --- *)

let test_cancel_contracts () =
  in_proc (fun proc ->
      check bool "no pending" false (Cancel.pending proc);
      (* set_state/set_type return previous values *)
      check bool "was enabled" true
        (Cancel.set_state proc Types.Cancel_disabled = Types.Cancel_enabled);
      check bool "was disabled" true
        (Cancel.set_state proc Types.Cancel_enabled = Types.Cancel_disabled);
      check bool "was controlled" true
        (Cancel.set_type proc Types.Cancel_asynchronous = Types.Cancel_controlled);
      ignore (Cancel.set_type proc Types.Cancel_controlled);
      (* test with nothing pending is a no-op *)
      Cancel.test proc)

let test_tsd_contracts () =
  in_proc (fun proc ->
      let k : int Tsd.key = Tsd.create_key proc () in
      check (Alcotest.option int) "unset is None" None (Tsd.get proc k);
      Tsd.set proc k (Some 3);
      Tsd.set proc k (Some 4);
      check (Alcotest.option int) "overwrite" (Some 4) (Tsd.get proc k))

let test_tsd_key_exhaustion () =
  in_proc (fun proc ->
      (* keys are engine-scoped: a fresh proc has the full table *)
      let made = ref 0 in
      (try
         for _ = 1 to Types.max_tsd_keys + 1 do
           ignore (Tsd.create_key proc () : unit Tsd.key);
           incr made
         done;
         Alcotest.fail "key table must be finite"
       with Failure _ -> ());
      check bool "made many keys first" true (!made > 0))

(* --- layered sync --- *)

let test_semaphore_contract () =
  in_proc (fun proc ->
      let s = Psem.Semaphore.create proc 2 in
      Psem.Semaphore.wait proc s;
      check int "value" 1 (Psem.Semaphore.value proc s);
      Psem.Semaphore.post proc s;
      Psem.Semaphore.post proc s;
      check int "can exceed initial" 3 (Psem.Semaphore.value proc s))

let test_rwlock_contract () =
  in_proc (fun proc ->
      let l = Psem.Rwlock.create proc () in
      check int "no readers" 0 (Psem.Rwlock.readers l);
      check bool "no writer" true (Psem.Rwlock.writer_tid l = None);
      Psem.Rwlock.read_lock proc l;
      Psem.Rwlock.read_lock proc l;
      check int "recursive readers allowed" 2 (Psem.Rwlock.readers l);
      Psem.Rwlock.read_unlock proc l;
      Psem.Rwlock.read_unlock proc l)

let test_barrier_contract () =
  in_proc (fun proc ->
      let b = Psem.Barrier.create proc 2 in
      check int "parties" 2 (Psem.Barrier.parties b);
      check int "none waiting" 0 (Psem.Barrier.waiting b))

(* --- stats surface --- *)

let test_stats_fields_sane () =
  let stats =
    run_stats (fun proc ->
        let t = Pthread.create proc (fun () -> 0) in
        ignore (Pthread.join proc t);
        0)
  in
  check bool "virtual time positive" true (stats.Engine.virtual_ns > 0);
  check int "one created" 1 stats.Engine.threads_created;
  check bool "traps happened during init" true (stats.Engine.kernel_traps > 0);
  check bool "pp_stats renders" true
    (String.length (Format.asprintf "%a" Engine.pp_stats stats) > 50)

let suite =
  [
    ( "conformance",
      [
        tc "Pthread" test_pthread_contracts;
        tc "priorities" test_priority_contracts;
        tc "once" test_once_contract;
        tc "Mutex" test_mutex_contracts;
        tc "Cond" test_cond_contracts;
        tc "Signal_api" test_signal_contracts;
        tc "Cancel" test_cancel_contracts;
        tc "Tsd" test_tsd_contracts;
        tc "Tsd exhaustion" test_tsd_key_exhaustion;
        tc "Semaphore" test_semaphore_contract;
        tc "Rwlock" test_rwlock_contract;
        tc "Barrier" test_barrier_contract;
        tc "stats" test_stats_fields_sane;
      ] );
  ]
