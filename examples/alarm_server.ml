(* An alarm-clock service: clients register wakeups with a server thread
   that multiplexes one timer over many deadlines — the idiom the library
   itself uses for timed waits (one SIGALRM demultiplexes all expirations,
   because BSD signals do not queue).

   Also demonstrates the debugging toolchain: a live thread listing
   (Debugger) mid-run and a per-thread utilization table (Trace_stats)
   afterwards.

   Run with: dune exec examples/alarm_server.exe *)

open Pthreads
module Sigset = Vm.Sigset
module Trace_stats = Vm.Trace_stats

type request = { wake_at : int; client : Types.cond }

let () =
  let proc =
    Pthread.make_proc ~trace:true (fun proc ->
        let m = Mutex.create proc ~name:"alarms.m" () in
        let changed = Cond.create proc ~name:"alarms.changed" () in
        let pending : request list ref = ref [] in
        let shutdown = ref false in

        (* The server: sleeps until the earliest registered deadline, then
           signals every expired client. *)
        let server =
          Pthread.create_unit proc
            ~attr:(Attr.with_prio 15 (Attr.with_name "alarmd" Attr.default))
            (fun () ->
              Mutex.lock proc m;
              while not !shutdown do
                match !pending with
                | [] -> ignore (Cond.wait proc changed m)
                | reqs ->
                    let earliest =
                      List.fold_left (fun a r -> min a r.wake_at) max_int reqs
                    in
                    if Pthread.now proc >= earliest then begin
                      let expired, rest =
                        List.partition (fun r -> r.wake_at <= Pthread.now proc) reqs
                      in
                      pending := rest;
                      List.iter (fun r -> Cond.signal proc r.client) expired
                    end
                    else
                      (* one timed wait serves every deadline *)
                      ignore (Cond.wait_until proc changed m ~deadline_ns:earliest)
              done;
              Mutex.unlock proc m)
        in

        let sleep_via_server ns =
          let me = Cond.create proc () in
          Mutex.lock proc m;
          let deadline = Pthread.now proc + ns in
          pending := { wake_at = deadline; client = me } :: !pending;
          Cond.signal proc changed;
          while Pthread.now proc < deadline do
            ignore (Cond.wait proc me m)
          done;
          Mutex.unlock proc m
        in

        let clients =
          List.map
            (fun (name, ns) ->
              Pthread.create_unit proc
                ~attr:(Attr.with_name name Attr.default)
                (fun () ->
                  sleep_via_server ns;
                  Printf.printf "[%7.1f us] %s woke after %d us\n"
                    (float_of_int (Pthread.now proc) /. 1e3)
                    name (ns / 1000)))
            [ ("early", 400_000); ("mid", 900_000); ("late", 1_500_000) ]
        in

        (* take a live snapshot while everyone is waiting *)
        Pthread.delay proc ~ns:200_000;
        Format.printf "--- thread listing at t=%.1f us ---@.%a@."
          (float_of_int (Pthread.now proc) /. 1e3)
          Debugger.pp_process proc;

        List.iter (fun t -> ignore (Pthread.join proc t)) clients;
        Mutex.lock proc m;
        shutdown := true;
        Cond.broadcast proc changed;
        Mutex.unlock proc m;
        ignore (Pthread.join proc server);
        0)
  in
  Pthread.start proc;
  Format.printf "@.--- per-thread utilization ---@.%a@." Trace_stats.pp
    (Trace_stats.per_thread (Pthread.trace_events proc))
