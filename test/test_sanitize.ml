(* The concurrency sanitizer: vector-clock races, lock-order cycles,
   held-at-exit leaks — all predicted from single executions of the
   scenario catalogue, then cross-validated against the DPOR explorer. *)

open Tu
open Pthreads
module Monitor = Sanitize.Monitor
module Report = Sanitize.Report
module Vclock = Sanitize.Vclock
module Scenarios = Check.Scenarios

let observe (s : Scenarios.t) = Monitor.observe ~mk:s.Scenarios.make ()

let races_of (s : Scenarios.t) =
  let r, _ = observe s in
  r.Report.races

let assert_clean (s : Scenarios.t) =
  let r, stop = observe s in
  check bool (s.Scenarios.name ^ " completes") true (stop = None);
  if not (Report.is_clean r) then
    Alcotest.failf "%s expected clean, got: %s" s.Scenarios.name
      (Report.summary r)

(* ------------------------------------------------------------------ *)
(* Vector clocks                                                       *)
(* ------------------------------------------------------------------ *)

let test_vclock_basics () =
  let c = Vclock.create () in
  check int "zero" 0 (Vclock.get c 3);
  check int "tick" 1 (Vclock.tick c 3);
  check int "tick again" 2 (Vclock.tick c 3);
  Vclock.set c 7 5;
  check int "set" 5 (Vclock.get c 7);
  check int "size" 2 (Vclock.size c)

let test_vclock_join_leq () =
  let a = Vclock.create () and b = Vclock.create () in
  Vclock.set a 1 3;
  Vclock.set b 1 1;
  Vclock.set b 2 4;
  check bool "incomparable a<=b" false (Vclock.leq a b);
  check bool "incomparable b<=a" false (Vclock.leq b a);
  Vclock.join a b;
  check int "join max" 3 (Vclock.get a 1);
  check int "join new" 4 (Vclock.get a 2);
  check bool "b <= join" true (Vclock.leq b a);
  let c = Vclock.copy a in
  ignore (Vclock.tick c 1 : int);
  check int "copy is independent" 3 (Vclock.get a 1);
  check bool "a <= ticked copy" true (Vclock.leq a c);
  check bool "ticked copy not <= a" false (Vclock.leq c a)

(* ------------------------------------------------------------------ *)
(* .san round trip                                                     *)
(* ------------------------------------------------------------------ *)

let test_san_round_trip () =
  let acc w tid =
    {
      Report.ac_write = w;
      ac_tid = tid;
      ac_tname = "t" ^ string_of_int tid;
      ac_time = 1000 * tid;
      ac_held = (if tid = 1 then [ "m" ] else []);
    }
  in
  let edge src dst tid =
    {
      Report.e_src = src;
      e_src_name = src;
      e_src_excl = true;
      e_dst = dst;
      e_dst_name = dst;
      e_dst_excl = tid <> 2;
      e_tid = tid;
      e_tname = "t" ^ string_of_int tid;
      e_time = 500 * tid;
      e_held = [ src ];
    }
  in
  let r =
    {
      Report.races =
        [
          {
            Report.rc_key = "user:1";
            rc_kind = Report.Race_vc;
            rc_first = acc false 1;
            rc_second = acc true 2;
          };
          {
            Report.rc_key = "user:2";
            rc_kind = Report.Race_lockset;
            rc_first = acc true 1;
            rc_second = acc true 3;
          };
        ];
      cycles = [ [ edge "mutex:1" "mutex:2" 1; edge "mutex:2" "mutex:1" 2 ] ];
      leaks =
        [
          {
            Report.lk_key = "mutex:3";
            lk_name = "m3";
            lk_tid = 4;
            lk_tname = "t4";
            lk_time = 99;
          };
        ];
    }
  in
  let s = Report.to_string r in
  match Report.of_string s with
  | Error e -> Alcotest.failf "of_string failed: %s" e
  | Ok r' ->
      check string "round trip" s (Report.to_string r');
      check int "count" 4 (Report.count r')

let test_san_rejects_garbage () =
  (match Report.of_string "not a report\n" with
  | Ok _ -> Alcotest.fail "bad header accepted"
  | Error _ -> ());
  match Report.of_string (Report.header ^ "\nrace oops\n") with
  | Ok _ -> Alcotest.fail "truncated race accepted"
  | Error _ -> ()

let test_empty_report () =
  check bool "empty is clean" true (Report.is_clean Report.empty);
  match Report.of_string (Report.to_string Report.empty) with
  | Ok r -> check bool "empty round trip" true (Report.is_clean r)
  | Error e -> Alcotest.failf "empty report: %s" e

(* ------------------------------------------------------------------ *)
(* Catalogue verdicts                                                  *)
(* ------------------------------------------------------------------ *)

(* The headline property: the default schedule never loses an update
   (both workers run their read/write atomically in FIFO order, main
   exits 0), yet one execution suffices to flag the race. *)
let test_racy_counter_flagged () =
  let r, stop = observe Scenarios.racy_counter in
  check bool "run completes" true (stop = None);
  match r.Report.races with
  | [] -> Alcotest.fail "racy-counter not flagged"
  | race :: _ ->
      check string "racy key" "user:1" race.Report.rc_key;
      check bool "distinct threads" true
        (race.Report.rc_first.Report.ac_tid
        <> race.Report.rc_second.Report.ac_tid);
      check bool "a write is involved" true
        (race.Report.rc_first.Report.ac_write
        || race.Report.rc_second.Report.ac_write)

(* The FIFO schedule serializes t1 before t2, so the deadlock never
   happens — the a->b / b->a cycle is still predicted. *)
let test_deadlock_ab_cycle () =
  let r, stop = observe Scenarios.deadlock_ab in
  check bool "run completes (no deadlock on this schedule)" true (stop = None);
  match r.Report.cycles with
  | [] -> Alcotest.fail "deadlock-ab cycle not predicted"
  | cyc :: _ ->
      check int "two edges" 2 (List.length cyc);
      let names =
        List.sort compare (List.map (fun e -> e.Report.e_src_name) cyc)
      in
      check (Alcotest.list string) "over a and b" [ "a"; "b" ] names;
      let tids = List.map (fun e -> e.Report.e_tid) cyc in
      check bool "edges from distinct threads" true
        (List.length (List.sort_uniq compare tids) = 2)

let test_lost_wakeup_unfixed_flagged () =
  match races_of (Scenarios.lost_wakeup ~fixed:false) with
  | [] -> Alcotest.fail "unfixed lost-wakeup not flagged"
  | race :: _ -> check string "flag variable" "user:1" race.Report.rc_key

let test_cancel_leak_flagged () =
  let r, _ = observe (Scenarios.cancel_cond_wait ~with_cleanup:false) in
  match r.Report.leaks with
  | [] -> Alcotest.fail "leaked mutex not reported"
  | l :: _ -> check string "leaked m" "m" l.Report.lk_name

let test_clean_catalogue () =
  List.iter assert_clean
    [
      Scenarios.ordered_ab;
      Scenarios.micro_two;
      Scenarios.three_two;
      Scenarios.lost_wakeup ~fixed:true;
      Scenarios.ceiling_nested;
      Scenarios.timed_consumer;
      Scenarios.cancel_cond_wait ~with_cleanup:true;
    ]

(* ------------------------------------------------------------------ *)
(* Happens-before soundness (hand-built programs)                      *)
(* ------------------------------------------------------------------ *)

let clean_prog name body =
  assert_clean { Scenarios.name; descr = name; make = (fun () -> Pthread.make_proc body) }

let test_hb_mutex () =
  (* same sharing shape as racy-counter, but protected: no report *)
  clean_prog "mutex-protected counter" (fun proc ->
      let m = Mutex.create proc ~name:"m" () in
      let counter = ref 0 in
      let worker () =
        Pthread.create proc (fun () ->
            Mutex.lock proc m;
            Check.Explore.touch_read proc 1;
            let v = !counter in
            Pthread.checkpoint proc;
            Check.Explore.touch_write proc 1;
            counter := v + 1;
            Mutex.unlock proc m;
            0)
      in
      let t1 = worker () in
      let t2 = worker () in
      ignore (Pthread.join proc t1);
      ignore (Pthread.join proc t2);
      if !counter = 2 then 0 else 1)

let test_hb_create_join () =
  (* unlocked accesses ordered purely by create and join edges *)
  clean_prog "create/join ordering" (fun proc ->
      let data = ref 0 in
      Check.Explore.touch_write proc 1;
      data := 1;
      let t =
        Pthread.create proc (fun () ->
            Check.Explore.touch_write proc 1;
            data := 2;
            0)
      in
      ignore (Pthread.join proc t);
      Check.Explore.touch_read proc 1;
      if !data = 2 then 0 else 1)

let test_hb_cond_message () =
  (* data written before the signal, read after the wake: ordered by the
     release->acquire chain around the predicate loop *)
  clean_prog "cond message passing" (fun proc ->
      let m = Mutex.create proc ~name:"m" () in
      let c = Cond.create proc ~name:"c" () in
      let ready = ref false and data = ref 0 in
      let consumer =
        Pthread.create proc (fun () ->
            Mutex.lock proc m;
            while not !ready do
              ignore (Cond.wait proc c m : Cond.wait_result)
            done;
            Mutex.unlock proc m;
            Check.Explore.touch_read proc 1;
            if !data = 41 then 1 else 0)
      in
      let producer =
        Pthread.create proc (fun () ->
            Check.Explore.touch_write proc 1;
            data := 42;
            Mutex.lock proc m;
            ready := true;
            Cond.signal proc c;
            Mutex.unlock proc m;
            0)
      in
      ignore (Pthread.join proc consumer);
      ignore (Pthread.join proc producer);
      0)

(* A byte through a Net pipe is a happens-before edge: the producer's
   write before [Net.write] is ordered before the consumer's read after
   its [Net.read] returns.  Without the transfer the same two accesses
   are unordered, and reported. *)
let pipe_handoff ~transfer proc =
  let l = Net.listen proc ~port:0 () in
  let c = Net.connect proc ~port:(Net.port proc l) in
  let s = Net.accept proc l in
  let data = ref 0 in
  let consumer =
    Pthread.create proc (fun () ->
        if transfer then
          ignore (Net.read proc s (Bytes.create 1) ~pos:0 ~len:1 : int);
        Check.Explore.touch_read proc 1;
        if !data = 41 then 1 else 0)
  in
  let producer =
    Pthread.create proc (fun () ->
        Check.Explore.touch_write proc 1;
        data := 42;
        if transfer then Net.write_all proc c (Bytes.make 1 'x') ~pos:0 ~len:1;
        0)
  in
  ignore (Pthread.join proc consumer);
  ignore (Pthread.join proc producer);
  Net.close proc c;
  Net.close proc s;
  Net.close_listener proc l;
  0

let test_hb_net_pipe () =
  clean_prog "Net pipe message passing" (pipe_handoff ~transfer:true);
  let r, stop =
    Monitor.observe
      ~mk:(fun () -> Pthread.make_proc (pipe_handoff ~transfer:false))
      ()
  in
  check bool "untransferred run completes" true (stop = None);
  check int "without the transfer: one race" 1 (List.length r.Report.races)

(* ------------------------------------------------------------------ *)
(* Rwlocks and semaphores in the lock-order graph                      *)
(* ------------------------------------------------------------------ *)

let rw_opposite_order ~excl () =
  Pthread.make_proc (fun proc ->
      let r1 = Psem.Rwlock.create proc ~name:"r1" () in
      let r2 = Psem.Rwlock.create proc ~name:"r2" () in
      let lock l =
        if excl then Psem.Rwlock.write_lock proc l
        else Psem.Rwlock.read_lock proc l
      and unlock l =
        if excl then Psem.Rwlock.write_unlock proc l
        else Psem.Rwlock.read_unlock proc l
      in
      let pair x y =
        Pthread.create proc (fun () ->
            lock x;
            lock y;
            unlock y;
            unlock x;
            0)
      in
      let t1 = pair r1 r2 in
      let t2 = pair r2 r1 in
      ignore (Pthread.join proc t1);
      ignore (Pthread.join proc t2);
      0)

let test_rwlock_write_cycle () =
  let r, stop = Monitor.observe ~mk:(rw_opposite_order ~excl:true) () in
  check bool "completes" true (stop = None);
  match r.Report.cycles with
  | [] -> Alcotest.fail "write-mode inversion not predicted"
  | cyc :: _ ->
      check bool "all edges exclusive" true
        (List.for_all (fun e -> e.Report.e_src_excl && e.Report.e_dst_excl) cyc)

let test_rwlock_read_no_cycle () =
  (* read-read inversion cannot deadlock: the all-shared cycle is
     filtered *)
  let r, stop = Monitor.observe ~mk:(rw_opposite_order ~excl:false) () in
  check bool "completes" true (stop = None);
  check bool "no cycle for shared modes" true (r.Report.cycles = [])

let test_sem_rendezvous_clean () =
  (* P in one thread, V in the other: relaxed ownership must not read
     this as lock nesting or a leak *)
  clean_prog "semaphore rendezvous" (fun proc ->
      let a = Psem.Semaphore.create proc ~name:"a" 0 in
      let b = Psem.Semaphore.create proc ~name:"b" 0 in
      let t1 =
        Pthread.create proc (fun () ->
            Psem.Semaphore.post proc a;
            Psem.Semaphore.wait proc b;
            0)
      in
      let t2 =
        Pthread.create proc (fun () ->
            Psem.Semaphore.wait proc a;
            Psem.Semaphore.post proc b;
            0)
      in
      ignore (Pthread.join proc t1);
      ignore (Pthread.join proc t2);
      0)

let test_sem_as_mutex_inversion () =
  (* a binary semaphore used as a lock still participates in ordering:
     S-then-L in one thread, L-then-S in the other *)
  let mk () =
    Pthread.make_proc (fun proc ->
        let s = Psem.Semaphore.create proc ~name:"s" 1 in
        let l = Mutex.create proc ~name:"l" () in
        let t1 =
          Pthread.create proc (fun () ->
              Psem.Semaphore.wait proc s;
              Mutex.lock proc l;
              Mutex.unlock proc l;
              Psem.Semaphore.post proc s;
              0)
        in
        let t2 =
          Pthread.create proc (fun () ->
              Mutex.lock proc l;
              Psem.Semaphore.wait proc s;
              Psem.Semaphore.post proc s;
              Mutex.unlock proc l;
              0)
        in
        ignore (Pthread.join proc t1);
        ignore (Pthread.join proc t2);
        0)
  in
  let r, stop = Monitor.observe ~mk () in
  check bool "completes" true (stop = None);
  check bool "inversion predicted" true (r.Report.cycles <> [])

(* ------------------------------------------------------------------ *)
(* Golden replays                                                      *)
(* ------------------------------------------------------------------ *)

let golden_san (s : Scenarios.t) file () =
  let r, _ = observe s in
  match Report.of_file (golden_path file) with
  | Error e -> Alcotest.failf "golden %s: %s" file e
  | Ok expected ->
      check string
        ("findings match golden " ^ file)
        (Report.to_string expected) (Report.to_string r)

(* ------------------------------------------------------------------ *)
(* Cross-validation against the explorer                               *)
(* ------------------------------------------------------------------ *)

let explorer_config =
  { Check.Explore.default_config with max_runs = 2000; max_steps = 4000 }

let test_cross_validation_buggy () =
  (* every predictive finding corresponds to a schedule DPOR can
     actually fail on *)
  List.iter
    (fun (s : Scenarios.t) ->
      let r, _ = observe s in
      check bool (s.Scenarios.name ^ " flagged") false (Report.is_clean r);
      let result = Check.Explore.run ~config:explorer_config s.Scenarios.make in
      match result.Check.Explore.failure with
      | Some _ -> ()
      | None ->
          Alcotest.failf "%s: sanitizer finding not confirmed by DPOR"
            s.Scenarios.name)
    [
      Scenarios.racy_counter;
      Scenarios.deadlock_ab;
      Scenarios.lost_wakeup ~fixed:false;
    ]

let test_cross_validation_clean () =
  (* and sound programs are clean on both sides *)
  List.iter
    (fun (s : Scenarios.t) ->
      let r, _ = observe s in
      check bool (s.Scenarios.name ^ " clean") true (Report.is_clean r);
      let result = Check.Explore.run ~config:explorer_config s.Scenarios.make in
      check bool
        (s.Scenarios.name ^ " explorer agrees")
        true
        (result.Check.Explore.failure = None))
    [ Scenarios.ordered_ab; Scenarios.lost_wakeup ~fixed:true ]

(* ------------------------------------------------------------------ *)
(* Soak integration                                                    *)
(* ------------------------------------------------------------------ *)

let test_soak_surfaces_findings () =
  (* an unperturbed racy-counter run exits 0; the sanitizer turns it
     into a failure outcome anyway *)
  let mk = Scenarios.racy_counter.Scenarios.make in
  (match Fault.Soak.run_one ~mk [] with
  | Some (Check.Explore.Invariant_violated msg), _, _ ->
      check bool "outcome names the sanitizer" true
        (String.length msg >= 10 && String.sub msg 0 10 = "sanitizer:")
  | Some k, _, _ ->
      Alcotest.failf "unexpected outcome %s"
        (Check.Explore.failure_kind_to_string k)
  | None, _, _ -> Alcotest.fail "sanitizer finding not surfaced");
  (* opting out restores the plain verdict *)
  (match Fault.Soak.run_one ~sanitize:false ~mk [] with
  | None, _, _ -> ()
  | Some k, _, _ ->
      Alcotest.failf "clean run failed with sanitize off: %s"
        (Check.Explore.failure_kind_to_string k));
  (* run_full exposes the structured report *)
  match Fault.Soak.run_full ~mk [] with
  | _, _, _, Some r -> check bool "report attached" false (Report.is_clean r)
  | _, _, _, None -> Alcotest.fail "run_full returned no report"

let test_soak_failure_carries_san () =
  let report =
    Fault.Soak.soak
      ~config:{ Fault.Soak.default_config with seeds = [ 1 ] }
      [ Scenarios.racy_counter ]
  in
  match report.Fault.Soak.r_failures with
  | [ f ] ->
      check int "calibration run itself fails" (-1) f.Fault.Soak.f_seed;
      (match f.Fault.Soak.f_san with
      | Some r -> check bool "san artifact non-clean" false (Report.is_clean r)
      | None -> Alcotest.fail "failure carries no .san report")
  | fs -> Alcotest.failf "expected 1 failure, got %d" (List.length fs)

let suite =
  [
    ( "sanitize",
      [
        tc "vclock basics" test_vclock_basics;
        tc "vclock join/leq" test_vclock_join_leq;
        tc ".san round trip" test_san_round_trip;
        tc ".san rejects garbage" test_san_rejects_garbage;
        tc "empty report" test_empty_report;
        tc "racy counter flagged" test_racy_counter_flagged;
        tc "deadlock-ab cycle predicted" test_deadlock_ab_cycle;
        tc "unfixed lost wakeup flagged" test_lost_wakeup_unfixed_flagged;
        tc "canceled waiter leak flagged" test_cancel_leak_flagged;
        tc "clean catalogue stays clean" test_clean_catalogue;
        tc "hb: mutex protection" test_hb_mutex;
        tc "hb: create/join" test_hb_create_join;
        tc "hb: cond message passing" test_hb_cond_message;
        tc "hb: Net pipe message passing" test_hb_net_pipe;
        tc "rwlock write inversion" test_rwlock_write_cycle;
        tc "rwlock read inversion filtered" test_rwlock_read_no_cycle;
        tc "semaphore rendezvous clean" test_sem_rendezvous_clean;
        tc "semaphore-as-mutex inversion" test_sem_as_mutex_inversion;
        tc "golden racy_counter.san"
          (golden_san Scenarios.racy_counter "racy_counter.san");
        tc "golden deadlock_ab.san"
          (golden_san Scenarios.deadlock_ab "deadlock_ab.san");
        tc "cross-validation: buggy" test_cross_validation_buggy;
        tc "cross-validation: clean" test_cross_validation_clean;
        tc "soak surfaces findings" test_soak_surfaces_findings;
        tc "soak failure carries .san" test_soak_failure_carries_san;
      ] );
  ]
