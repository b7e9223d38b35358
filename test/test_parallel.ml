(* Parallel mode (lib/pthreads/shard.ml): the domains=1 path must be
   bit-identical to the plain single-domain engine, and under real
   domains the pool must lose nothing — every task starts exactly once
   (stolen or not), every join and await completes, counters and sums
   come out exact, and failures propagate to the caller.  Alongside
   test_qlock this is the only suite that spawns host domains. *)

open Tu
open Pthreads

(* -------------------------------------------------------------- *)
(* domains=1 is the single-domain engine, bit for bit              *)
(* -------------------------------------------------------------- *)

(* A deliberately messy program: priorities, a condition variable,
   timers, a signal and nested joins — enough machinery that any
   divergence between the two entry points would scramble the trace. *)
let messy proc =
  let m = Mutex.create proc () in
  let cv = Cond.create proc () in
  let items = ref [] in
  let consumer =
    Pthread.create proc (fun () ->
        Mutex.lock proc m;
        while List.length !items < 3 do
          ignore (Cond.wait proc cv m)
        done;
        let n = List.fold_left ( + ) 0 !items in
        Mutex.unlock proc m;
        n)
  in
  let producers =
    List.init 3 (fun i ->
        Pthread.create_unit proc
          ~attr:(Attr.with_prio (10 + i) Attr.default)
          (fun () ->
            Pthread.delay proc ~ns:(100_000 * (i + 1));
            Mutex.lock proc m;
            items := (i + 1) :: !items;
            Cond.signal proc cv;
            Mutex.unlock proc m))
  in
  List.iter (fun t -> ignore (Pthread.join proc t)) producers;
  match Pthread.join proc consumer with
  | Types.Exited n -> n
  | _ -> -1

let run_traced ~domains () =
  let events = ref [] in
  let status, stats =
    Pthreads.run ?domains ~seed:11 ~trace:true (fun proc ->
        let n = messy proc in
        events := Pthread.trace_events proc;
        n)
  in
  (status, stats, !events)

let test_domains1_bit_identical () =
  let s0, st0, ev0 = run_traced ~domains:None () in
  let s1, st1, ev1 = run_traced ~domains:(Some 1) () in
  check exit_status "status" (Option.get s0) (Option.get s1);
  if st0 <> st1 then Alcotest.fail "stats diverge between run and ~domains:1";
  check int "trace length" (List.length ev0) (List.length ev1);
  if ev0 <> ev1 then Alcotest.fail "trace events diverge";
  (* and the degenerate Shard API answers single-domain values *)
  ignore
    (run_main (fun proc ->
         check int "shard_index" 0 (Shard.shard_index proc);
         check int "domain_count" 1 (Shard.domain_count proc);
         check int "steal_count" 0 (Shard.steal_count proc);
         0))

(* Shard.spawn/await in single-domain mode degenerate to local threads:
   same program, no pool, checker-compatible. *)
let test_single_domain_spawn_degenerates () =
  ignore
    (run_main (fun proc ->
         let hs =
           List.init 5 (fun i -> Shard.spawn proc (fun _ -> 10 * (i + 1)))
         in
         let sum =
           List.fold_left
             (fun acc h ->
               match Shard.await proc h with
               | Types.Exited v -> acc + v
               | _ -> Alcotest.fail "degenerate await failed")
             0 hs
         in
         check int "sum over local tasks" 150 sum;
         0))

(* -------------------------------------------------------------- *)
(* Facade argument validation                                      *)
(* -------------------------------------------------------------- *)

let test_run_rejections () =
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  expect_invalid "domains=0" (fun () ->
      Pthreads.run ~domains:0 (fun _ -> 0));
  expect_invalid "shared backend" (fun () ->
      Pthreads.run ~domains:2 ~backend:(Pthreads.vm_backend ()) (fun _ -> 0));
  expect_invalid "perverted" (fun () ->
      Pthreads.run ~domains:2 ~perverted:Types.Mutex_switch (fun _ -> 0));
  expect_invalid "negative home" (fun () ->
      ignore (Attr.with_home (-1) Attr.default);
      0)

(* -------------------------------------------------------------- *)
(* The stress catalogue under real domains                         *)
(* -------------------------------------------------------------- *)

(* Four task shapes, each a self-checking miniature of the scenario
   catalogue (mutex counting, condition-variable handoff, a nested
   create/join tree, semaphore rendezvous), each built only from
   shard-local threads on whatever engine runs the task.  A task
   returns its index iff its own assertions held. *)
let task_body i proc =
  match i mod 4 with
  | 0 ->
      (* three local threads hammer one mutex-guarded counter *)
      let m = Mutex.create proc () in
      let n = ref 0 in
      let ts =
        List.init 3 (fun _ ->
            Pthread.create_unit proc (fun () ->
                for _ = 1 to 100 do
                  Mutex.lock proc m;
                  incr n;
                  Mutex.unlock proc m;
                  Pthread.yield proc
                done))
      in
      List.iter (fun t -> ignore (Pthread.join proc t)) ts;
      if !n = 300 then i else -1
  | 1 ->
      (* predicate-loop producer/consumer: nothing lost, nothing extra *)
      let m = Mutex.create proc () in
      let cv = Cond.create proc () in
      let q = Queue.create () in
      let got = ref 0 in
      let consumer =
        Pthread.create_unit proc (fun () ->
            for _ = 1 to 50 do
              Mutex.lock proc m;
              while Queue.is_empty q do
                ignore (Cond.wait proc cv m)
              done;
              got := !got + Queue.pop q;
              Mutex.unlock proc m
            done)
      in
      let producer =
        Pthread.create_unit proc (fun () ->
            for k = 1 to 50 do
              Mutex.lock proc m;
              Queue.push k q;
              Cond.signal proc cv;
              Mutex.unlock proc m;
              if k mod 7 = 0 then Pthread.delay proc ~ns:50_000
            done)
      in
      ignore (Pthread.join proc producer);
      ignore (Pthread.join proc consumer);
      if !got = 50 * 51 / 2 then i else -1
  | 2 ->
      (* a two-level create/join tree with timers on the leaves *)
      let leaves parent_i =
        List.init 3 (fun j ->
            Pthread.create proc (fun () ->
                Pthread.delay proc ~ns:(10_000 * (j + 1));
                (parent_i * 10) + j))
      in
      let mids =
        List.init 2 (fun k ->
            Pthread.create proc (fun () ->
                List.fold_left
                  (fun acc t ->
                    match Pthread.join proc t with
                    | Types.Exited v -> acc + v
                    | _ -> -1000)
                  0 (leaves k)))
      in
      let total =
        List.fold_left
          (fun acc t ->
            match Pthread.join proc t with
            | Types.Exited v -> acc + v
            | _ -> -1000)
          0 mids
      in
      (* leaves: 0+1+2 and 10+11+12 *)
      if total = 36 then i else -1
  | _ ->
      (* semaphore ping-pong rendezvous, exact turn count *)
      let ping = Psem.Semaphore.create proc 0 in
      let pong = Psem.Semaphore.create proc 0 in
      let turns = ref 0 in
      let t =
        Pthread.create_unit proc (fun () ->
            for _ = 1 to 20 do
              Psem.Semaphore.wait proc ping;
              incr turns;
              Psem.Semaphore.post proc pong
            done)
      in
      for _ = 1 to 20 do
        Psem.Semaphore.post proc ping;
        Psem.Semaphore.wait proc pong
      done;
      ignore (Pthread.join proc t);
      if !turns = 20 then i else -1

let stress ~domains () =
  let tasks = 24 in
  let started = Atomic.make 0 in
  let o =
    Shard.run_parallel ~domains (fun proc ->
        let hs =
          List.init tasks (fun i ->
              Shard.spawn proc (fun proc' ->
                  Atomic.incr started;
                  task_body i proc'))
        in
        let sum =
          List.fold_left
            (fun acc h ->
              match Shard.await proc h with
              | Types.Exited v when v >= 0 -> acc + v
              | Types.Exited v ->
                  Alcotest.failf "a task's internal assertions failed (%d)" v
              | st ->
                  Alcotest.failf "task did not exit: %a" Types.pp_exit_status
                    st)
            0 hs
        in
        check int "awaited sum exact" (tasks * (tasks - 1) / 2) sum;
        0)
  in
  check exit_status "root exit" (Types.Exited 0) o.Shard.status;
  check int "every task body ran exactly once" tasks (Atomic.get started);
  (* per-shard task ledger: the 24 tasks plus the root, wherever each
     one landed (steals move tasks between shards, never duplicate or
     drop them) *)
  check int "task ledger exact" (tasks + 1)
    (Array.fold_left ( + ) 0 o.Shard.tasks);
  check int "a shard per domain" domains (Array.length o.Shard.shard_stats);
  if o.Shard.stats.threads_created < tasks then
    Alcotest.fail "summed stats lost threads"

let test_stress_2 () = stress ~domains:2 ()
let test_stress_4 () = stress ~domains:4 ()

(* -------------------------------------------------------------- *)
(* Cross-shard edges: explicit homes, await chains, failure        *)
(* -------------------------------------------------------------- *)

let test_homes_and_cross_shard_await () =
  let domains = 3 in
  let o =
    Shard.run_parallel ~domains (fun proc ->
        (* explicit home on the far shard; oversized homes wrap *)
        let a =
          Shard.spawn proc ~home:(domains - 1) (fun proc' ->
              let i = Shard.shard_index proc' in
              if i >= 0 && i < domains then begin
                Pthread.delay proc' ~ns:200_000;
                41
              end
              else -1)
        in
        let b =
          Shard.spawn proc
            ~attr:(Attr.with_home (domains + 1) Attr.default)
            (fun proc' ->
              (* awaits a handle owned by another shard *)
              match Shard.await proc' a with
              | Types.Exited v -> v + 1
              | _ -> -1)
        in
        (match Shard.await proc b with
        | Types.Exited 42 -> ()
        | st ->
            Alcotest.failf "cross-shard await chain: %a" Types.pp_exit_status
              st);
        (match Shard.poll a with
        | Some (Types.Exited 41) -> ()
        | _ -> Alcotest.fail "poll after completion");
        0)
  in
  check exit_status "root exit" (Types.Exited 0) o.Shard.status

let test_task_failure_propagates () =
  let o =
    Shard.run_parallel ~domains:2 (fun proc ->
        let h =
          Shard.spawn proc ~home:1 (fun _ -> failwith "task exploded")
        in
        match Shard.await proc h with
        | Types.Failed _ -> 0
        | st ->
            Alcotest.failf "expected Failed, got %a" Types.pp_exit_status st)
  in
  check exit_status "root exit" (Types.Exited 0) o.Shard.status

(* -------------------------------------------------------------- *)
(* post_all: a process-level signal reaches every shard            *)
(* -------------------------------------------------------------- *)

let test_post_all_reaches_every_shard () =
  let domains = 3 in
  let installed = Atomic.make 0 in
  let hits = Array.init domains (fun _ -> Atomic.make false) in
  let o =
    Shard.run_parallel ~domains (fun proc ->
        (* One watcher homed per shard, watching SIGCHLD — whose default
           action is ignore, so a shard left watcher-less by a steal
           absorbs the post harmlessly instead of dying to a default
           action.  Delivery flags are per *hosting* engine: if a steal
           lands two watchers on one engine the second's [set_action]
           replaces the first's handler, but both poll the same flag. *)
        let watchers =
          List.init domains (fun i ->
              Shard.spawn proc ~home:i (fun proc' ->
                  let idx = Shard.shard_index proc' in
                  Signal_api.set_action proc' Vm.Sigset.sigchld
                    (Types.Sig_handler
                       {
                         h_mask = Vm.Sigset.empty;
                         h_fn =
                           (fun ~signo:_ ~code:_ ->
                             Atomic.set hits.(idx) true);
                       });
                  Atomic.incr installed;
                  let spins = ref 0 in
                  while (not (Atomic.get hits.(idx))) && !spins < 500_000 do
                    incr spins;
                    Pthread.yield proc'
                  done;
                  if Atomic.get hits.(idx) then 0 else 1))
        in
        (* don't start posting before every watcher is listening: the
           posts are not queued (BSD one-pending-slot semantics), and an
           ignored early post is pure lost time for the yield loops *)
        while Atomic.get installed < domains do
          Pthread.delay proc ~ns:50_000
        done;
        (* keep posting until every watcher saw it: signals are posted
           per-process per-shard, and a watcher may not have installed
           its handler when an early post lands (BSD signals do not
           queue) *)
        let rec drive remaining =
          match List.filter (fun h -> Shard.poll h = None) remaining with
          | [] -> ()
          | left ->
              Shard.post_all proc Vm.Sigset.sigchld;
              Pthread.delay proc ~ns:100_000;
              drive left
        in
        drive watchers;
        List.iter
          (fun h ->
            match Shard.await proc h with
            | Types.Exited 0 -> ()
            | _ -> Alcotest.fail "a watcher never saw the signal")
          watchers;
        0)
  in
  check exit_status "root exit" (Types.Exited 0) o.Shard.status

(* -------------------------------------------------------------- *)
(* Idle shards park; pushes, steals and the doorbell wake them     *)
(* -------------------------------------------------------------- *)

(* Pool shutdown: the last [task_done] sets the finished flag before it
   queues [Stop], so a shard can see the flag while its service thread
   is still parked.  The idle seam must unpark it rather than let the
   plain virtual backend report a deadlock. *)
let test_pool_shutdown_no_false_deadlock () =
  let stopped = ref 0 in
  for i = 1 to 200 do
    match
      Shard.run_parallel ~domains:2
        ~backend_for:(fun _ -> Vm.Backend.virtual_ Vm.Cost_model.free)
        (fun proc ->
          List.init 2 (fun k -> Shard.spawn proc ~home:k (fun _ -> i + k))
          |> List.iter (fun h -> ignore (Shard.await proc h));
          0)
    with
    | _ -> ()
    | exception Types.Process_stopped _ -> incr stopped
  done;
  check int "pools ending in Process_stopped" 0 !stopped

(* A two-shard await cycle: every shard ends up parked with an empty
   inbox, which the pool reports instead of hanging. *)
let test_cross_shard_deadlock_raises () =
  let verdict =
    within ~seconds:10. (fun () ->
        match
          Shard.run_parallel ~domains:2 (fun proc ->
              let ha = Atomic.make None and hb = Atomic.make None in
              let rec get cell p =
                match Atomic.get cell with
                | Some h -> h
                | None ->
                    Pthread.yield p;
                    get cell p
              in
              let a =
                Shard.spawn proc ~home:1 (fun p ->
                    ignore (Shard.await p (get hb p));
                    0)
              in
              Atomic.set ha (Some a);
              let b =
                Shard.spawn proc ~home:0 (fun p ->
                    ignore (Shard.await p (get ha p));
                    0)
              in
              Atomic.set hb (Some b);
              ignore (Shard.await proc a);
              0)
        with
        | _ -> None
        | exception Types.Process_stopped (Types.Deadlock msg) -> Some msg)
  in
  if verdict = None then Alcotest.fail "the await cycle completed"

(* Busy-wait on the host clock without a checkpoint, so the calling
   shard's service thread cannot run meanwhile. *)
let spin_until ~ns stop =
  let t0 = Vm.Real_clock.now_ns () in
  while (not (stop ())) && Vm.Real_clock.now_ns () - t0 < ns do
    Domain.cpu_relax ()
  done

(* A shard parked with no threads and no timers is rung by a burst of
   spawns queued at a busy shard, and steals from it.  The root task may
   itself have been stolen at startup, so the shards are named relative
   to wherever it runs. *)
let test_parked_shard_steals_burst () =
  let before = ref 0 in
  let o =
    Shard.run_parallel ~domains:2 (fun proc ->
        let here = Shard.shard_index proc in
        let other = 1 - here in
        ignore (Shard.await proc (Shard.spawn proc ~home:other (fun _ -> 0)));
        (* let the other shard finish that task and park *)
        spin_until ~ns:20_000_000 (fun () -> false);
        before := Shard.steal_count proc;
        let hs =
          List.init 16 (fun i -> Shard.spawn proc ~home:here (fun _ -> i))
        in
        (* this shard stays busy: only a steal can start the burst now *)
        spin_until ~ns:5_000_000_000 (fun () ->
            Shard.steal_count proc > !before);
        List.iter (fun h -> ignore (Shard.await proc h)) hs;
        0)
  in
  check exit_status "root exit" (Types.Exited 0) o.Shard.status;
  if o.Shard.steals <= !before then
    Alcotest.fail "the parked shard never stole from the burst"

(* Unix shards: the awaiting shard idles in select with no deadline and
   no fd, so only the doorbell rung by the other shard's [Wake] push can
   end its wait. *)
let test_unix_await_woken_by_doorbell () =
  let done_at = Atomic.make 0 in
  let status, _ =
    within ~seconds:10. (fun () ->
        Pthreads.run ~domains:2
          ~backend_for:(fun _ -> Pthreads.unix_backend ())
          (fun proc ->
            let started = Atomic.make false in
            let h =
              Shard.spawn proc ~home:1 (fun p ->
                  Atomic.set started true;
                  Pthread.delay p ~ns:20_000_000;
                  Atomic.set done_at (Vm.Real_clock.now_ns ());
                  7)
            in
            (* once shard 1 runs the task it cannot be stolen back *)
            spin_until ~ns:5_000_000_000 (fun () -> Atomic.get started);
            match Shard.await proc h with
            | Types.Exited 7 ->
                let lag = Vm.Real_clock.now_ns () - Atomic.get done_at in
                if lag < 100_000_000 then 0 else 2
            | _ -> 1))
  in
  check (Alcotest.option exit_status) "awaited promptly" (Some (Types.Exited 0))
    status

let suite =
  [
    ( "parallel",
      [
        tc "domains=1 is bit-identical" test_domains1_bit_identical;
        tc "spawn/await degenerate locally" test_single_domain_spawn_degenerates;
        tc "facade rejects bad arguments" test_run_rejections;
        tc "stress catalogue, 2 shards" test_stress_2;
        tc "stress catalogue, 4 shards" test_stress_4;
        tc "homes and cross-shard await" test_homes_and_cross_shard_await;
        tc "task failure propagates" test_task_failure_propagates;
        tc "post_all reaches every shard" test_post_all_reaches_every_shard;
        tc "pool shutdown: no false deadlock" test_pool_shutdown_no_false_deadlock;
        tc "cross-shard await cycle raises" test_cross_shard_deadlock_raises;
        tc "parked shard steals a burst" test_parked_shard_steals_burst;
        tc "unix await woken by the doorbell" test_unix_await_woken_by_doorbell;
      ] );
  ]
