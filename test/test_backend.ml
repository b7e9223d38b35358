(* Backend conformance: the same battery (signals, timers, I/O completion
   ordering, sbrk accounting, SIGIO collapse) run against both backends —
   the deterministic virtual kernel and the real Unix event loop — plus an
   echo-server smoke whose handler source is shared between the two.

   The point of the functor: both backends drive one [Vm.Unix_kernel]
   state machine, and these tests pin the behaviours that must not drift
   apart (BSD one-pending-slot signal collapse above all). *)

open Tu
open Pthreads
module Unix_kernel = Vm.Unix_kernel
module Backend = Vm.Backend

module type BACKEND = sig
  val name : string
  val make : unit -> Pthreads.backend

  val realtime : bool
  (** true = clock follows the host; timing assertions get slack *)
end

(* ------------------------------------------------------------------ *)
(* The echo server: ONE handler and driver for both backends           *)
(* ------------------------------------------------------------------ *)

let echo_handler proc conn =
  let buf = Bytes.create 256 in
  let rec loop () =
    let n = Net.read proc conn buf ~pos:0 ~len:(Bytes.length buf) in
    if n > 0 then begin
      Net.write_all proc conn buf ~pos:0 ~len:n;
      loop ()
    end
  in
  loop ();
  Net.close proc conn

let read_exactly proc conn buf =
  let rec fill pos =
    if pos < Bytes.length buf then begin
      let n = Net.read proc conn buf ~pos ~len:(Bytes.length buf - pos) in
      if n = 0 then failwith "echo: unexpected EOF";
      fill (pos + n)
    end
  in
  fill 0

(* [n_clients] concurrent connections, [msgs] round trips each; returns
   the number of verified echoes. *)
let echo_roundtrips backend ~n_clients ~msgs =
  let ok = ref 0 in
  let status, _stats =
    Pthreads.run ~backend (fun proc ->
        let lst = Net.listen proc ~port:0 () in
        let port = Net.port proc lst in
        let server =
          Pthread.create_unit proc (fun () ->
              for _ = 1 to n_clients do
                let conn = Net.accept proc lst in
                ignore
                  (Pthread.create_unit proc (fun () -> echo_handler proc conn))
              done)
        in
        let clients =
          List.init n_clients (fun i ->
              Pthread.create_unit proc (fun () ->
                  let conn = Net.connect proc ~port in
                  for m = 1 to msgs do
                    let payload =
                      Bytes.of_string (Printf.sprintf "client-%d message-%d" i m)
                    in
                    Net.write_all proc conn payload ~pos:0
                      ~len:(Bytes.length payload);
                    let back = Bytes.create (Bytes.length payload) in
                    read_exactly proc conn back;
                    if Bytes.equal back payload then incr ok
                  done;
                  Net.close proc conn))
        in
        List.iter (fun t -> ignore (Pthread.join proc t)) clients;
        ignore (Pthread.join proc server);
        Net.close_listener proc lst;
        0)
  in
  (match status with
  | Some (Types.Exited 0) -> ()
  | _ -> Alcotest.fail "echo process did not exit cleanly");
  !ok

(* ------------------------------------------------------------------ *)
(* The battery                                                         *)
(* ------------------------------------------------------------------ *)

module Battery (B : BACKEND) = struct
  let run_b f =
    let status, stats = Pthreads.run ~backend:(B.make ()) f in
    (match status with
    | Some (Types.Exited 0) -> ()
    | _ -> Alcotest.fail (B.name ^ ": main did not exit 0"));
    stats

  (* Signals: a handler installed through the thread-level API fires for
     both a directed kill and an external process-level signal. *)
  let test_signals () =
    let hits = ref 0 in
    let stats =
      run_b (fun proc ->
          Signal_api.set_action proc Sigset.sigusr1
            (Types.Sig_handler
               {
                 h_mask = Sigset.empty;
                 h_fn = (fun ~signo:_ ~code:_ -> incr hits);
               });
          Signal_api.kill proc (Pthread.self proc) Sigset.sigusr1;
          Pthread.checkpoint proc;
          Signal_api.send_to_process proc Sigset.sigusr1;
          Pthread.checkpoint proc;
          0)
    in
    check int (B.name ^ ": handler runs") 2 !hits;
    check bool (B.name ^ ": external signal went through the kernel") true
      (stats.signals_posted >= 1)

  (* Timers: a delay armed on the shared timing wheel wakes no earlier
     than requested (and, on the virtual backend, with no overshoot beyond
     the simulated bookkeeping). *)
  let test_timer () =
    let dt = ref 0 in
    ignore
      (run_b (fun proc ->
           let t0 = Pthread.now proc in
           Pthread.delay proc ~ns:5_000_000;
           dt := Pthread.now proc - t0;
           0));
    check bool
      (Printf.sprintf "%s: woke after the deadline (%.2f ms)" B.name
         (float_of_int !dt /. 1e6))
      true (!dt >= 5_000_000);
    let ceiling = if B.realtime then 5_000_000_000 else 10_000_000 in
    check bool
      (Printf.sprintf "%s: no wild overshoot (%.2f ms)" B.name
         (float_of_int !dt /. 1e6))
      true (!dt < ceiling)

  (* I/O completion ordering: three async reads with distinct latencies
     complete in latency order regardless of submission order. *)
  let test_io_order () =
    let order = ref [] in
    ignore
      (run_b (fun proc ->
           let reader tag latency_ns =
             Pthread.create_unit proc (fun () ->
                 Signal_api.aio_read proc ~latency_ns;
                 order := tag :: !order)
           in
           let a = reader "slow" 6_000_000 in
           let b = reader "fast" 2_000_000 in
           let c = reader "mid" 4_000_000 in
           List.iter (fun t -> ignore (Pthread.join proc t)) [ a; b; c ];
           0));
    check (Alcotest.list string)
      (B.name ^ ": completions in latency order")
      [ "fast"; "mid"; "slow" ] (List.rev !order)

  (* sbrk accounting: heap growth is a counted kernel trap on either
     backend. *)
  let test_sbrk () =
    let b = B.make () in
    let k = b.Backend.kernel in
    let count name =
      Option.value ~default:0 (List.assoc_opt name (Unix_kernel.trap_counts k))
    in
    let before = count "sbrk" and traps_before = Unix_kernel.trap_count k in
    Unix_kernel.sbrk k 4096;
    Unix_kernel.sbrk k 4096;
    check int (B.name ^ ": sbrk trap counted") (before + 2) (count "sbrk");
    check bool
      (B.name ^ ": total traps grew")
      true
      (Unix_kernel.trap_count k >= traps_before + 2);
    b.Backend.shutdown ()

  (* BSD keeps ONE pending slot per signal, so N completions collapse
     into a single SIGIO delivery — but the completion counts recorded
     behind the doorbell never collapse.  Both backends surface
     asynchronous completions through [submit_io] and [check_events], so
     this pins them together. *)
  let test_sigio_collapse () =
    let b = B.make () in
    let k = b.Backend.kernel in
    let delivered = ref 0 in
    Unix_kernel.sigaction k Sigset.sigio
      (Unix_kernel.Catch
         {
           mask = Sigset.empty;
           fn = (fun ~signo:_ ~code:_ ~origin:_ -> incr delivered);
         });
    (* mask SIGIO so the doorbell pends while completions pile up *)
    ignore (Unix_kernel.sigsetmask k (Sigset.singleton Sigset.sigio));
    let lost0 = Unix_kernel.signals_lost k in
    Unix_kernel.submit_io k ~latency_ns:0 ~requester:7;
    Unix_kernel.submit_io k ~latency_ns:0 ~requester:7;
    Unix_kernel.submit_io k ~latency_ns:0 ~requester:9;
    Unix_kernel.check_events k;
    check int (B.name ^ ": one pending slot, two collapsed") 2
      (Unix_kernel.signals_lost k - lost0);
    ignore (Unix_kernel.sigsetmask k Sigset.empty);
    while Unix_kernel.deliver_pending k do
      ()
    done;
    check int (B.name ^ ": exactly one SIGIO delivered") 1 !delivered;
    (* the aio_error-style poll still sees every completion *)
    check bool
      (B.name ^ ": completion counts survive the collapse")
      true
      (Unix_kernel.take_io_completion k ~requester:7
      && Unix_kernel.take_io_completion k ~requester:7
      && (not (Unix_kernel.take_io_completion k ~requester:7))
      && Unix_kernel.take_io_completion k ~requester:9
      && not (Unix_kernel.take_io_completion k ~requester:9));
    b.Backend.shutdown ()

  (* The doorbell: [wake] from another domain ends a blocked unix [wait]
     long before its deadline.  The virtual [wait] never blocks, so there
     [wake] changes nothing: the clock still jumps to the deadline, and no
     deadline is still deadlock. *)
  let test_wake () =
    let b = B.make () in
    let k = b.Backend.kernel in
    let far = Unix_kernel.now k + 5_000_000_000 in
    let waker =
      Domain.spawn (fun () ->
          Unix.sleepf 0.02;
          b.Backend.wake ())
    in
    let t0 = Vm.Real_clock.now_ns () in
    let progress = b.Backend.wait ~deadline_ns:(Some far) in
    let waited = Vm.Real_clock.now_ns () - t0 in
    Domain.join waker;
    check bool (B.name ^ ": wait reports progress") true progress;
    if B.realtime then
      check bool
        (Printf.sprintf "%s: woken early (%.1f ms)" B.name
           (float_of_int waited /. 1e6))
        true (waited < 1_000_000_000)
    else begin
      check int (B.name ^ ": clock jumped to the deadline") far
        (Unix_kernel.now k);
      b.Backend.wake ();
      check bool
        (B.name ^ ": no deadline is still deadlock")
        false
        (b.Backend.wait ~deadline_ns:None)
    end;
    b.Backend.shutdown ()

  let test_echo () =
    let n_clients = 4 and msgs = 3 in
    let ok = echo_roundtrips (B.make ()) ~n_clients ~msgs in
    check int (B.name ^ ": every echo verified") (n_clients * msgs) ok

  (* Cancelling a thread blocked in [Net.read] must not wedge the
     connection: the reader holds nothing while it waits, so once it is
     cancelled and joined the peer's write completes and a new reader
     gets the bytes. *)
  let test_cancel_blocked_reader () =
    let reader_status = ref (Types.Exited 0) and got = ref "" in
    ignore
      (run_b (fun proc ->
           let lst = Net.listen proc ~port:0 () in
           let client = Net.connect proc ~port:(Net.port proc lst) in
           let server = Net.accept proc lst in
           let reader =
             Pthread.create proc (fun () ->
                 Net.read proc server (Bytes.create 16) ~pos:0 ~len:16)
           in
           let blocked_in_io () =
             match Pthread.state_of proc reader with
             | Some s -> String.starts_with ~prefix:"blocked-on-io" s
             | None -> false
           in
           while not (blocked_in_io ()) do
             Pthread.yield proc
           done;
           Cancel.cancel proc reader;
           reader_status := Pthread.join proc reader;
           let msg = Bytes.of_string "after" in
           Net.write_all proc client msg ~pos:0 ~len:(Bytes.length msg);
           let back = Bytes.create (Bytes.length msg) in
           read_exactly proc server back;
           got := Bytes.to_string back;
           Net.close proc client;
           Net.close proc server;
           Net.close_listener proc lst;
           0));
    check exit_status (B.name ^ ": reader cancelled") Types.Canceled
      !reader_status;
    check string (B.name ^ ": a new reader gets the bytes") "after" !got

  (* Two readers blocked on one connection, one write of two bytes: each
     reader asks for one byte, and both must get theirs — the data left
     by the first reader's short read wakes the second. *)
  let test_two_blocked_readers () =
    let got = ref [] in
    ignore
      (run_b (fun proc ->
           let lst = Net.listen proc ~port:0 () in
           let client = Net.connect proc ~port:(Net.port proc lst) in
           let server = Net.accept proc lst in
           let reader () =
             Pthread.create_unit proc (fun () ->
                 let b = Bytes.create 1 in
                 if Net.read proc server b ~pos:0 ~len:1 = 1 then
                   got := Bytes.to_string b :: !got)
           in
           let readers = [ reader (); reader () ] in
           let blocked t =
             match Pthread.state_of proc t with
             | Some s -> String.starts_with ~prefix:"blocked-on-io" s
             | None -> false
           in
           while not (List.for_all blocked readers) do
             Pthread.yield proc
           done;
           Net.write_all proc client (Bytes.of_string "ab") ~pos:0 ~len:2;
           List.iter (fun t -> ignore (Pthread.join proc t)) readers;
           Net.close proc client;
           Net.close proc server;
           Net.close_listener proc lst;
           0));
    check (Alcotest.list string)
      (B.name ^ ": each reader got one byte")
      [ "a"; "b" ] (List.sort compare !got)

  let suite =
    [
      tc (B.name ^ " backend: signals") test_signals;
      tc (B.name ^ " backend: timers") test_timer;
      tc (B.name ^ " backend: io completion order") test_io_order;
      tc (B.name ^ " backend: sbrk accounting") test_sbrk;
      tc (B.name ^ " backend: SIGIO collapse (one pending slot)")
        test_sigio_collapse;
      tc (B.name ^ " backend: echo server smoke") test_echo;
      tc (B.name ^ " backend: wake") test_wake;
      tc (B.name ^ " backend: cancelled Net.read leaves the connection usable")
        test_cancel_blocked_reader;
      tc (B.name ^ " backend: two blocked readers share one write")
        test_two_blocked_readers;
    ]
end

module Vm_battery = Battery (struct
  let name = "vm"
  let make () = Pthreads.vm_backend ()
  let realtime = false
end)

module Unix_battery = Battery (struct
  let name = "unix"
  let make () = Pthreads.unix_backend ()
  let realtime = true
end)

(* ------------------------------------------------------------------ *)
(* Backend-specific extras                                             *)
(* ------------------------------------------------------------------ *)

(* The virtual path to the same collapse: simultaneous simulated
   completions surfaced by one [check_events] share a single doorbell. *)
let test_vm_simultaneous_completion_collapse () =
  let b = Pthreads.vm_backend () in
  let k = b.Backend.kernel in
  ignore (Unix_kernel.sigsetmask k (Sigset.singleton Sigset.sigio));
  let lost0 = Unix_kernel.signals_lost k in
  Unix_kernel.submit_io k ~latency_ns:1_000 ~requester:1;
  Unix_kernel.submit_io k ~latency_ns:1_000 ~requester:2;
  Unix_kernel.submit_io k ~latency_ns:1_000 ~requester:3;
  Unix_kernel.advance k 1_000;
  Unix_kernel.check_events k;
  check int "three simultaneous completions, two signals collapsed" 2
    (Unix_kernel.signals_lost k - lost0);
  check bool "every completion still recorded" true
    (Unix_kernel.take_io_completion k ~requester:1
    && Unix_kernel.take_io_completion k ~requester:2
    && Unix_kernel.take_io_completion k ~requester:3)

(* Virtual-backend determinism: identical seeds give identical virtual
   durations and switch counts for the concurrent echo scenario. *)
let test_vm_echo_deterministic () =
  let run_once () =
    let ns = ref 0 in
    let backend = Pthreads.vm_backend () in
    let ok = echo_roundtrips backend ~n_clients:3 ~msgs:2 in
    ns := Unix_kernel.now backend.Backend.kernel;
    (ok, !ns)
  in
  let a = run_once () and b = run_once () in
  check bool "two virtual runs bit-identical" true (a = b)

(* A long-lived virtual engine's object census does not grow with its
   connections: Net's pipes and listeners are engine I/O waits, not
   mutexes and conds, so after 10^4 connect/close cycles (and with a
   connection still open) the census holds only the program's own
   objects, and the invariant checker still walks them. *)
let test_vm_census_constant_under_churn () =
  let census proc =
    let n = ref 0 and names = ref [] in
    Engine.iter_mutexes proc (fun m ->
        incr n;
        names := m.Types.m_name :: !names);
    Engine.iter_conds proc (fun _ -> incr n);
    (!n, List.rev !names)
  in
  check int "main exits" 0
    (run_main (fun proc ->
         let keep = Mutex.create proc ~name:"before" () in
         let l = Net.listen proc ~port:0 () in
         let port = Net.port proc l in
         let cycle () =
           let c = Net.connect proc ~port in
           let s = Net.accept proc l in
           Net.close proc c;
           Net.close proc s
         in
         cycle ();
         let open_conn = Net.connect proc ~port in
         let open_peer = Net.accept proc l in
         let before = census proc in
         for _ = 1 to 10_000 do
           cycle ()
         done;
         let after = census proc in
         check int "census size unchanged by 10^4 connect/close cycles"
           (fst before) (fst after);
         check (Alcotest.list string) "survivors in creation order"
           [ "before" ] (snd after);
         (match Check.Invariant.check proc with
         | None -> ()
         | Some msg -> Alcotest.failf "invariant: %s" msg);
         Net.close proc open_conn;
         Net.close proc open_peer;
         Mutex.lock proc keep;
         Mutex.unlock proc keep;
         0))

(* Unix backend: a real host signal (SIGUSR1 via kill(2)) is forwarded
   into the simulated process and delivered through the same universal
   handler as everything else. *)
let test_unix_host_signal_forwarding () =
  let hits = ref 0 in
  let status, _ =
    Pthreads.run ~backend:(Pthreads.unix_backend ()) (fun proc ->
        Signal_api.set_action proc Sigset.sigusr1
          (Types.Sig_handler
             {
               h_mask = Sigset.empty;
               h_fn = (fun ~signo:_ ~code:_ -> incr hits);
             });
        Unix.kill (Unix.getpid ()) Sys.sigusr1;
        (* the forwarded signal is imported by the backend pump at the
           next checkpoints; poll until it lands *)
        let tries = ref 0 in
        while !hits = 0 && !tries < 1_000 do
          incr tries;
          Pthread.yield proc
        done;
        0)
  in
  (match status with
  | Some (Types.Exited 0) -> ()
  | _ -> Alcotest.fail "forwarding process did not exit cleanly");
  check int "host SIGUSR1 forwarded and handled" 1 !hits

(* Unix backend: a forwarded host signal rings the doorbell.  The engine
   idles in select with no deadline and no fd; whichever domain's thread
   the host hands SIGUSR1 to, the sigwaiter must have it within 50 ms. *)
let test_unix_idle_signal_rings_doorbell () =
  let sent = Atomic.make 0 in
  let status, latency =
    within ~seconds:10. (fun () ->
        let latency = ref max_int in
        let status, _ =
          Pthreads.run ~backend:(Pthreads.unix_backend ()) (fun proc ->
              let usr1 = Sigset.singleton Sigset.sigusr1 in
              ignore (Signal_api.set_mask proc `Block usr1 : Sigset.t);
              let killer =
                Domain.spawn (fun () ->
                    Unix.sleepf 0.02;
                    Atomic.set sent (Vm.Real_clock.now_ns ());
                    Unix.kill (Unix.getpid ()) Sys.sigusr1)
              in
              let s = Signal_api.sigwait proc usr1 in
              latency := Vm.Real_clock.now_ns () - Atomic.get sent;
              Domain.join killer;
              if s = Sigset.sigusr1 then 0 else 1)
        in
        (status, !latency))
  in
  (match status with
  | Some (Types.Exited 0) -> ()
  | _ -> Alcotest.fail "sigwait process did not exit cleanly");
  check bool
    (Printf.sprintf "SIGUSR1 handled within 50 ms (%.1f ms)"
       (float_of_int latency /. 1e6))
    true (latency < 50_000_000)

(* Unix backend: a message written in two pieces goes out whole.  With
   Nagle's algorithm the second piece waits for the ACK of the first,
   which the peer delays, so each of these round trips would take tens
   of milliseconds; connected and accepted sockets set TCP_NODELAY. *)
let test_unix_split_writes_not_delayed () =
  let rounds = 20 and len = 64 in
  let send proc conn buf =
    Net.write_all proc conn buf ~pos:0 ~len:8;
    Net.write_all proc conn buf ~pos:8 ~len:(len - 8)
  in
  let t0 = Vm.Real_clock.now_ns () in
  let status, _ =
    Pthreads.run ~backend:(Pthreads.unix_backend ()) (fun proc ->
        let lst = Net.listen proc ~port:0 () in
        let port = Net.port proc lst in
        let server =
          Pthread.create_unit proc (fun () ->
              let conn = Net.accept proc lst in
              let buf = Bytes.create len in
              for _ = 1 to rounds do
                read_exactly proc conn buf;
                send proc conn buf
              done;
              Net.close proc conn)
        in
        let conn = Net.connect proc ~port in
        let buf = Bytes.make len 'x' in
        for _ = 1 to rounds do
          send proc conn buf;
          read_exactly proc conn buf
        done;
        Net.close proc conn;
        ignore (Pthread.join proc server);
        0)
  in
  let ms = float_of_int (Vm.Real_clock.now_ns () - t0) /. 1e6 in
  check (Alcotest.option exit_status) "exit" (Some (Types.Exited 0)) status;
  check bool
    (Printf.sprintf "%d split round trips within 500 ms (%.1f ms)" rounds ms)
    true (ms < 500.)

(* Unix backend: the host clock is CLOCK_MONOTONIC at nanosecond
   resolution.  Successive reads never go back, and some steps are finer
   than the microsecond a gettimeofday clock would tick in. *)
let test_unix_clock_monotonic_ns () =
  let prev = ref (Vm.Real_clock.now_ns ()) in
  let backwards = ref 0 and sub_us = ref 0 in
  for _ = 1 to 100_000 do
    let now = Vm.Real_clock.now_ns () in
    if now < !prev then incr backwards;
    if (now - !prev) mod 1000 <> 0 then incr sub_us;
    prev := now
  done;
  check int "no read went backwards" 0 !backwards;
  check bool
    (Printf.sprintf "steps finer than 1 us (%d of 10^5)" !sub_us)
    true (!sub_us > 0)

(* Unix backend: fds past FD_SETSIZE (1024) are served.  With 1100
   placeholders open, every socket of the echo lands above the ceiling,
   where select(2) fails with EINVAL.  Forty clients keep more than 64
   watches in the poll set at once. *)
let test_unix_beyond_fd_setsize () =
  let placeholders =
    List.init 1100 (fun _ -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0)
  in
  let ok =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close placeholders)
      (fun () ->
        echo_roundtrips (Pthreads.unix_backend ()) ~n_clients:40 ~msgs:2)
  in
  check int "every echo verified above fd 1024" 80 ok

(* Unix backend: a timed wait ends at its deadline.  Linux's default
   50 us timer slack stretched every idle wait; the backend zeroes it, so
   the median overshoot of a 200 us delay stays well under that.  The
   median, not the max, so a loaded host cannot make this flaky. *)
let test_unix_delay_precision () =
  let n = 200 and ns = 200_000 in
  let over = Array.make n 0 in
  let status, _ =
    Pthreads.run ~backend:(Pthreads.unix_backend ()) (fun proc ->
        for i = 0 to n - 1 do
          let t0 = Vm.Real_clock.now_ns () in
          Pthread.delay proc ~ns;
          over.(i) <- Vm.Real_clock.now_ns () - t0 - ns
        done;
        0)
  in
  check (Alcotest.option exit_status) "exit" (Some (Types.Exited 0)) status;
  Array.sort compare over;
  let median = over.(n / 2) in
  check bool "never early" true (over.(0) >= 0);
  check bool
    (Printf.sprintf "median overshoot of a 200 us delay < 30 us (%.1f us)"
       (float_of_int median /. 1e3))
    true (median < 30_000)

(* Unix backend: a client that resets mid-request.  A raw socket sends
   half a message, sets SO_LINGER 0 and closes, so the peer gets an RST.
   The server thread blocked in [Net.read] sees end of stream (ECONNRESET
   maps to 0), and the run exits cleanly. *)
let test_unix_client_reset_mid_request () =
  let half = 8 in
  let status, got =
    within ~seconds:10. (fun () ->
        let got = ref (-1) in
        let status, _ =
          Pthreads.run ~backend:(Pthreads.unix_backend ()) (fun proc ->
              let lst = Net.listen proc ~port:0 () in
              let port = Net.port proc lst in
              let client =
                Domain.spawn (fun () ->
                    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
                    Unix.connect fd
                      (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
                    ignore (Unix.write fd (Bytes.make half 'x') 0 half : int);
                    Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
                    Unix.close fd)
              in
              let conn = Net.accept proc lst in
              let buf = Bytes.create (2 * half) in
              let rec drain total =
                let n = Net.read proc conn buf ~pos:0 ~len:(Bytes.length buf) in
                if n = 0 then total else drain (total + n)
              in
              got := drain 0;
              Net.close proc conn;
              Net.close_listener proc lst;
              Domain.join client;
              0)
        in
        (status, !got))
  in
  check (Alcotest.option exit_status) "exit" (Some (Types.Exited 0)) status;
  check bool
    (Printf.sprintf "end of stream after at most half a message (%d bytes)" got)
    true
    (got >= 0 && got <= half)

(* Unix backend: a cancelled reader leaves no watch behind.  Main
   cancels a thread blocked in [Net.read], then waits on a cond nobody
   signals.  The connection stays idle, and no forwarded host signal has
   a handler or a sigwaiter, so no event can ever arrive: the run must
   stop with [Deadlock], not sleep in [ppoll] on the dead reader's
   watch. *)
let cancelled_reader_then_deadlock make_backend () =
  let backend = make_backend () in
  let outcome =
    within ~seconds:1. (fun () ->
        match
          Pthreads.run ~backend (fun proc ->
              let lst = Net.listen proc ~port:0 () in
              let _client = Net.connect proc ~port:(Net.port proc lst) in
              let server = Net.accept proc lst in
              let reader =
                Pthread.create proc (fun () ->
                    Net.read proc server (Bytes.create 16) ~pos:0 ~len:16)
              in
              while
                not
                  (match Pthread.state_of proc reader with
                  | Some s -> String.starts_with ~prefix:"blocked-on-io" s
                  | None -> false)
              do
                Pthread.yield proc
              done;
              Cancel.cancel proc reader;
              ignore (Pthread.join proc reader);
              let m = Mutex.create proc () and c = Cond.create proc () in
              Mutex.lock proc m;
              ignore (Cond.wait proc c m : Cond.wait_result);
              0)
        with
        | _ -> "returned"
        | exception Types.Process_stopped (Types.Deadlock _) -> "deadlock")
  in
  check string "stops with Deadlock" "deadlock" outcome

let test_unix_cancelled_reader_then_deadlock =
  cancelled_reader_then_deadlock (fun () ->
      Pthreads.unix_backend ~forward_signals:[] ())

let test_unix_default_cancelled_reader_then_deadlock =
  cancelled_reader_then_deadlock (fun () -> Pthreads.unix_backend ())

(* The default unix backend forwards SIGUSR1, SIGUSR2 and SIGHUP.  None
   of them has a handler or a sigwaiter in these programs, so their
   arrival could wake nobody, and each deadlock stops at once instead of
   blocking in [ppoll]. *)
let default_unix_deadlock main () =
  let outcome =
    within ~seconds:1. (fun () ->
        match Pthreads.run ~backend:(Pthreads.unix_backend ()) main with
        | _ -> "returned"
        | exception Types.Process_stopped (Types.Deadlock _) -> "deadlock")
  in
  check string "stops with Deadlock" "deadlock" outcome

let test_unix_default_unsignalled_cond =
  default_unix_deadlock (fun proc ->
      let m = Mutex.create proc () and c = Cond.create proc () in
      Mutex.lock proc m;
      ignore (Cond.wait proc c m : Cond.wait_result);
      0)

let test_unix_default_join_cycle =
  default_unix_deadlock (fun proc ->
      let t = Pthread.create proc (fun () -> ignore (Pthread.join proc 0); 0) in
      ignore (Pthread.join proc t);
      0)

let test_unix_default_mutex_cycle =
  default_unix_deadlock (fun proc ->
      let a = Mutex.create proc () and b = Mutex.create proc () in
      Mutex.lock proc a;
      let t =
        Pthread.create_unit proc (fun () ->
            Mutex.lock proc b;
            Mutex.lock proc a)
      in
      (* [t] takes [b] and blocks on [a] *)
      Pthread.yield proc;
      Mutex.lock proc b;
      ignore (Pthread.join proc t);
      0)

(* ...but a thread in [sigwait] on a forwarded signal can be woken by the
   host: with nothing else runnable the run is not a deadlock, and a
   [kill] from another domain 100 ms later ends the wait. *)
let test_unix_default_sigwaiter_not_deadlocked () =
  let status, _ =
    within ~seconds:10. (fun () ->
        Pthreads.run ~backend:(Pthreads.unix_backend ()) (fun proc ->
            let usr1 = Sigset.singleton Sigset.sigusr1 in
            ignore (Signal_api.set_mask proc `Block usr1 : Sigset.t);
            let waiter =
              Pthread.create proc (fun () -> Signal_api.sigwait proc usr1)
            in
            let killer =
              Domain.spawn (fun () ->
                  Unix.sleepf 0.1;
                  Unix.kill (Unix.getpid ()) Sys.sigusr1)
            in
            let got = Pthread.join proc waiter in
            Domain.join killer;
            match got with
            | Types.Exited s when s = Sigset.sigusr1 -> 0
            | _ -> 1))
  in
  check (Alcotest.option exit_status) "woken by the host kill"
    (Some (Types.Exited 0)) status

(* [Pthreads.run ~backend] owns the backend: it is shut down exactly once
   however the run ends — main returns, the process deadlocks
   ([Process_stopped] still reaches the caller), or main raises (its
   exception becomes main's [Failed] status). *)
let test_run_shuts_backend_down_once () =
  let run_counted main =
    let b = Pthreads.vm_backend () in
    let calls = ref 0 in
    let shutdown () =
      incr calls;
      b.Backend.shutdown ()
    in
    let outcome =
      match Pthreads.run ~backend:{ b with Backend.shutdown } main with
      | status, _ -> Ok status
      | exception e -> Error e
    in
    (outcome, !calls)
  in
  let returns, n = run_counted (fun _ -> 0) in
  check int "returned: one shutdown" 1 n;
  (match returns with
  | Ok (Some (Types.Exited 0)) -> ()
  | _ -> Alcotest.fail "returned: expected Exited 0");
  let deadlocks, n =
    run_counted (fun proc ->
        let m = Mutex.create proc () and c = Cond.create proc () in
        Mutex.lock proc m;
        ignore (Cond.wait proc c m : Cond.wait_result);
        0)
  in
  check int "deadlocked: one shutdown" 1 n;
  (match deadlocks with
  | Error (Types.Process_stopped (Types.Deadlock _)) -> ()
  | _ -> Alcotest.fail "deadlocked: expected Process_stopped to propagate");
  let raises, n = run_counted (fun _ -> failwith "main raised") in
  check int "raised: one shutdown" 1 n;
  match raises with
  | Ok (Some (Types.Failed (Failure _))) -> ()
  | _ -> Alcotest.fail "raised: expected main's Failed status"

let suite =
  [
    ( "backend",
      Vm_battery.suite @ Unix_battery.suite
      @ [
          tc "vm: simultaneous completions collapse (doc regression)"
            test_vm_simultaneous_completion_collapse;
          tc "vm: concurrent echo run is deterministic"
            test_vm_echo_deterministic;
          tc "vm: census constant under connect/close churn"
            test_vm_census_constant_under_churn;
          tc "unix: host signal forwarding" test_unix_host_signal_forwarding;
          tc "unix: idle host signal rings the doorbell"
            test_unix_idle_signal_rings_doorbell;
          tc "unix: split writes are not delayed (TCP_NODELAY)"
            test_unix_split_writes_not_delayed;
          tc "unix: host clock is monotonic with ns resolution"
            test_unix_clock_monotonic_ns;
          tc "unix: fds beyond FD_SETSIZE are served"
            test_unix_beyond_fd_setsize;
          tc "unix: delay median overshoot under 30 us"
            test_unix_delay_precision;
          tc "unix: client reset mid-request reads as end of stream"
            test_unix_client_reset_mid_request;
          tc "unix: cancelled reader, then an unsignalled cond: deadlock"
            test_unix_cancelled_reader_then_deadlock;
          tc "unix default: cancelled reader, then an unsignalled cond: deadlock"
            test_unix_default_cancelled_reader_then_deadlock;
          tc "unix default: unsignalled cond is a deadlock"
            test_unix_default_unsignalled_cond;
          tc "unix default: join cycle is a deadlock" test_unix_default_join_cycle;
          tc "unix default: AB/BA mutex cycle is a deadlock"
            test_unix_default_mutex_cycle;
          tc "unix default: a sigwaiter is woken by a host kill"
            test_unix_default_sigwaiter_not_deadlocked;
          tc "run shuts the backend down once on every exit"
            test_run_shuts_backend_down_once;
        ] );
  ]
