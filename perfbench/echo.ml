(* Real loopback TCP echo on the Unix backend: one engine (one domain),
   [conns] connections, 64-byte messages.  Client and server threads are
   green threads of the same process; every byte crosses the host's
   loopback stack, so this is where [Real_kernel]'s pump/wait/select, [Net]
   and the SIGIO doorbell carry the load.

   Two loop types, run as separate workloads:
   - closed: each connection sends its next message as soon as the echo
     came back (zero think, zero service), so per-message library cost
     sets the round-trip time;
   - open: a seeded paced generator per connection sends at a fixed rate
     whether or not replies have come back; the server does a fixed
     amount of real CPU work per request and the client checks it.
     Latency runs from each request's scheduled send time, so a stall
     also charges the requests queued behind it. *)

open Perfbench
open Pthreads

let msg_len = 64
let body_len = 56

(* The server's per-request CPU work in the open loop: FNV-1a over the
   56-byte body, [work_rounds] times (1792 multiply-xor steps). *)
let work_rounds = 32

let digest buf =
  let h = ref 0x4bf29ce484222325 in
  for _ = 1 to work_rounds do
    for i = 0 to body_len - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x100000001b3
    done
  done;
  !h

let stamp buf = Bytes.set_int64_le buf body_len (Int64.of_int (digest buf))

type mode = Closed | Open of { rate : int  (** requests/s over all connections *) }

type run = {
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  lat_ns : Samples.t;
  gen_lag_ns : Samples.t;  (** open loop: send time past schedule *)
  mutable ready_at : int;
  mutable end_at : int;
  mutable setup_ns : int;
  mutable stats : Pthreads.stats option;
  mutable events : Vm.Trace.event list;
}

(* A verified reply to a request timed from [t0]. *)
let record r t0 =
  Samples.add r.lat_ns (Clock.now_ns () - t0);
  r.completed <- r.completed + 1

(* Seeded message bodies, per connection; bytes 0..7 carry the sequence
   number so a reordered or replayed reply cannot compare equal. *)
let patterns ~seed conn =
  let rng = Vm.Rng.fork (Vm.Rng.create seed) conn in
  Array.init 64 (fun _ ->
      Bytes.init body_len (fun _ -> Char.chr (Vm.Rng.int rng 256)))

let fill buf ~pool ~seq =
  Bytes.blit pool.(seq land 63) 0 buf 0 body_len;
  Bytes.set_int64_le buf 0 (Int64.of_int seq);
  Bytes.fill buf body_len (msg_len - body_len) '\000'

let handler mode p proc conn =
  let buf = Bytes.create msg_len in
  let rec serve () =
    if Probe.read_exactly p proc conn buf then begin
      (match mode with Closed -> () | Open _ -> stamp buf);
      Probe.write_all p proc conn buf;
      serve ()
    end
  in
  serve ();
  Net.close proc conn

let closed_client p proc conn ~pool ~deadline r =
  let req = Bytes.create msg_len and back = Bytes.create msg_len in
  let rec loop seq =
    let t0 = Clock.now_ns () in
    if t0 < deadline then begin
      fill req ~pool ~seq;
      r.attempted <- r.attempted + 1;
      Probe.write_all p proc conn req;
      if Probe.read_exactly p proc conn back && Bytes.equal back req then begin
        record r t0;
        loop (seq + 1)
      end
      else
        (* a short or wrong echo leaves the stream out of step: stop *)
        r.failed <- r.failed + 1
    end
  in
  loop 0;
  Net.close proc conn

(* Inter-send gaps are uniform on [period/2, 3 period/2): a fixed mean
   rate without the bursts of a Poisson source. *)
let gap rng period = (period / 2) + Vm.Rng.int rng period

let open_clients p proc conn ~pool ~rng ~period ~start ~deadline r =
  let inflight = Queue.create () in
  let sender () =
    let req = Bytes.create msg_len in
    let rec loop seq sched =
      if sched < deadline then begin
        Probe.delay_until p proc ~target_ns:sched;
        fill req ~pool ~seq;
        Queue.push sched inflight;
        Samples.add r.gen_lag_ns (Clock.now_ns () - sched);
        r.attempted <- r.attempted + 1;
        Probe.write_all p proc conn req;
        loop (seq + 1) (sched + gap rng period)
      end
      else begin
        (* end-of-run marker: its echo tells the receiver to stop *)
        fill req ~pool ~seq:(-1);
        Queue.push (-1) inflight;
        Probe.write_all p proc conn req
      end
    in
    loop 0 (start + gap rng period)
  in
  let receiver () =
    let back = Bytes.create msg_len and expect = Bytes.create msg_len in
    let rec loop seq =
      if Probe.read_exactly p proc conn back then begin
        let sched = Queue.pop inflight in
        if sched >= 0 then begin
          fill expect ~pool ~seq;
          stamp expect;
          if Bytes.equal back expect then record r sched
          else r.failed <- r.failed + 1;
          loop (seq + 1)
        end
      end
      else
        (* end of stream before the marker: every outstanding request is lost *)
        Queue.iter (fun s -> if s >= 0 then r.failed <- r.failed + 1) inflight
    in
    loop 0;
    Net.close proc conn
  in
  [ Pthread.create_unit proc sender; Pthread.create_unit proc receiver ]

(* Verified round trips per connection before anything is timed: they
   fill the caches and the engine's pools, and they make set-up a
   millisecond-scale figure that tracks the host's speed rather than the
   cold-cache noise of a few system calls. *)
let warmup = 250

let warm_up proc mode conn ~pool =
  let req = Bytes.create msg_len and back = Bytes.create msg_len in
  for seq = 0 to warmup - 1 do
    fill req ~pool ~seq;
    Probe.write_all None proc conn req;
    (match mode with Closed -> () | Open _ -> stamp req);
    if not (Probe.read_exactly None proc conn back && Bytes.equal back req) then
      failwith "echo: a warm-up reply did not match"
  done

(* One engine run: connect [conns] clients, warm them up, then load them
   for [duration_ns] of host time.  [duration_ns = 0] is a set-up-only
   run.  Set-up is backend creation through the last warm-up reply. *)
let run ~mode ~conns ~seed ~duration_ns ?probe ?(trace = false) () =
  let r =
    {
      attempted = 0;
      completed = 0;
      failed = 0;
      lat_ns = Samples.create ();
      gen_lag_ns = Samples.create ();
      ready_at = 0;
      end_at = 0;
      setup_ns = 0;
      stats = None;
      events = [];
    }
  in
  let t_start = Clock.now_ns () in
  let backend = Pthreads.unix_backend ~forward_signals:[] () in
  let backend =
    match probe with Some pr -> Probe.wrap pr backend | None -> backend
  in
  let status, stats =
    Pthreads.run ~backend ~trace (fun proc ->
        if trace then
          Vm.Trace.set_capacity proc.Types.trace (Some Probe.trace_capacity);
        let lst = Net.listen proc ~port:0 () in
        let port = Net.port proc lst in
        let server =
          Pthread.create_unit proc (fun () ->
              for _ = 1 to conns do
                let c = Net.accept proc lst in
                ignore
                  (Pthread.create_unit proc (fun () -> handler mode probe proc c))
              done)
        in
        let cs = List.init conns (fun _ -> Net.connect proc ~port) in
        ignore (Pthread.join proc server);
        let pools = List.init conns (patterns ~seed) in
        List.iter2 (fun c pool -> warm_up proc mode c ~pool) cs pools;
        r.ready_at <- Clock.now_ns ();
        let deadline = r.ready_at + duration_ns in
        let threads =
          List.concat
            (List.mapi
               (fun i (c, pool) ->
                 match mode with
                 | Closed ->
                     [
                       Pthread.create_unit proc (fun () ->
                           closed_client probe proc c ~pool ~deadline r);
                     ]
                 | Open { rate } ->
                     let rng = Vm.Rng.fork (Vm.Rng.create seed) (1000 + i) in
                     open_clients probe proc c ~pool ~rng
                       ~period:(1_000_000_000 * conns / rate)
                       ~start:r.ready_at ~deadline r)
               (List.combine cs pools))
        in
        List.iter (fun t -> ignore (Pthread.join proc t)) threads;
        r.end_at <- Clock.now_ns ();
        Net.close_listener proc lst;
        if trace then r.events <- Pthread.trace_events proc;
        0)
  in
  (match status with
  | Some (Types.Exited 0) -> ()
  | _ -> failwith "echo: process did not exit cleanly");
  r.setup_ns <- r.ready_at - t_start;
  r.stats <- Some stats;
  r
