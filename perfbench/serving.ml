(* The serving traffic mix on the virtual backend with a free cost model:
   an echo server, a closed-loop fleet of clients with think time, an
   open-loop spike of clients arriving mid-run, and bounded-Pareto
   service times spent in [Pthread.delay].  Connections are the virtual
   transport's in-process pipes (library [Mutex]/[Cond]), so there is no
   host I/O and host time is pure library work: engine dispatch, ready
   queue, timing wheel, thread create/join and the sync primitives.

   One pass is one process running the whole mix.  [sharded_pass] runs
   one instance homed on each shard of a [Shard] pool, so the only
   difference from [vm_pass] is the cross-domain layer. *)

open Perfbench
open Pthreads

let msg_len = 64

type params = {
  clients : int;  (** closed-loop clients, connected for the whole pass *)
  requests : int;  (** round trips per closed-loop client *)
  spike_clients : int;  (** open-loop burst arriving at [spike_at_ns] *)
  spike_requests : int;
  think_ns : int;  (** think time before each request, uniform on [1, think_ns] *)
  service_ns : int;  (** Pareto scale of the per-request service time *)
  spike_at_ns : int;  (** virtual time of the burst *)
}

let params =
  {
    clients = 2000;
    requests = 5;
    spike_clients = 500;
    spike_requests = 1;
    think_ns = 2_000_000;
    service_ns = 200_000;
    spike_at_ns = 4_000_000;
  }

let expected p = (p.clients * p.requests) + (p.spike_clients * p.spike_requests)

type instance = {
  mutable completed : int;  (** round trips whose echo compared equal *)
  host_ns : Samples.t;  (** send to verified reply, host clock *)
  virt_ns : Samples.t;  (** the same span on the engine's virtual clock *)
  mutable first_send : int;  (** host ns of the first request, 0 before *)
}

let instance () =
  {
    completed = 0;
    host_ns = Samples.create ();
    virt_ns = Samples.create ();
    first_send = 0;
  }

(* Bounded Pareto: shape 1.3, scale [xm], capped at 50 xm. *)
let pareto rng ~xm =
  let u = max 1e-9 (Vm.Rng.float rng 1.0) in
  let x = float_of_int xm /. (u ** (1.0 /. 1.3)) in
  int_of_float (Float.min x (50.0 *. float_of_int xm))

let handler p proc conn ~service_ns rng =
  let buf = Bytes.create msg_len in
  let rec serve () =
    if Probe.read_exactly p proc conn buf then begin
      Pthread.delay proc ~ns:(pareto rng ~xm:service_ns);
      Probe.write_all p proc conn buf;
      serve ()
    end
  in
  serve ();
  Net.close proc conn

let client p proc ~port ~requests ~think_ns rng inst =
  let conn = Net.connect proc ~port in
  let payload = Bytes.init msg_len (fun _ -> Char.chr (Vm.Rng.int rng 256)) in
  let back = Bytes.create msg_len in
  let rec go k =
    if k < requests then begin
      if think_ns > 0 then Pthread.delay proc ~ns:(1 + Vm.Rng.int rng think_ns);
      Bytes.set_int64_le payload 0 (Int64.of_int k);
      let h0 = Clock.now_ns () and v0 = Pthread.now proc in
      if inst.first_send = 0 then inst.first_send <- h0;
      Probe.write_all p proc conn payload;
      (* a short or wrong echo stops this client; its remaining requests stay
         unverified and count as failed *)
      if Probe.read_exactly p proc conn back && Bytes.equal back payload then begin
        Samples.add inst.host_ns (Clock.now_ns () - h0);
        Samples.add inst.virt_ns (Pthread.now proc - v0);
        inst.completed <- inst.completed + 1;
        go (k + 1)
      end
    end
  in
  go 0;
  Net.close proc conn

let scenario ?probe proc pr ~seed inst =
  let master = Vm.Rng.create seed in
  let lst = Net.listen proc ~port:0 () in
  let port = Net.port proc lst in
  let server =
    Pthread.create_unit proc (fun () ->
        for i = 1 to pr.clients + pr.spike_clients do
          let conn = Net.accept proc lst in
          let rng = Vm.Rng.fork master i in
          ignore
            (Pthread.create_unit proc (fun () ->
                 handler probe proc conn ~service_ns:pr.service_ns rng))
        done)
  in
  let clients =
    List.init pr.clients (fun i ->
        let rng = Vm.Rng.fork master (100_000 + i) in
        Pthread.create_unit proc (fun () ->
            client probe proc ~port ~requests:pr.requests ~think_ns:pr.think_ns
              rng inst))
  in
  let spike =
    Pthread.create_unit proc (fun () ->
        Pthread.delay proc ~ns:pr.spike_at_ns;
        List.init pr.spike_clients (fun i ->
            let rng = Vm.Rng.fork master (200_000 + i) in
            Pthread.create_unit proc (fun () ->
                client probe proc ~port ~requests:pr.spike_requests ~think_ns:0
                  rng inst))
        |> List.iter (fun t -> ignore (Pthread.join proc t)))
  in
  List.iter (fun t -> ignore (Pthread.join proc t)) clients;
  ignore (Pthread.join proc spike);
  ignore (Pthread.join proc server);
  Net.close_listener proc lst

type pass = {
  insts : instance array;
  start : int;  (** host ns before the backend was built *)
  stop : int;
  stats : Pthreads.stats;
  dispatches : int array;  (** per engine *)
  timer_peak : int;  (** most timers armed at once, over engines *)
  events : Vm.Trace.event list;  (** [~trace:true] only *)
  steals : int;
  remote_wakes : int;
}

let setup_ns ps =
  let first =
    Array.fold_left
      (fun m i -> if i.first_send > 0 then min m i.first_send else m)
      max_int ps.insts
  in
  first - ps.start

(* Host time of the measured phase: first request to the end of the pass. *)
let measured_ns ps = ps.stop - ps.start - setup_ns ps
let completed ps = Array.fold_left (fun n i -> n + i.completed) 0 ps.insts

let vm_backend () = Vm.Backend.virtual_ Vm.Cost_model.free

(* A shard's virtual backend that answers one "nothing can wake me" with
   "look again" before standing by it.  [Shard]'s idle seam can observe
   the pool finishing before the [Stop] message that wakes the parked
   service thread is queued ([task_done] sets the flag, then broadcasts);
   the plain virtual backend then reports a deadlock that the shard's
   next pump would have resolved.  One retry per idle spell lets that
   pump run; a real deadlock still fails on the second call. *)
let shard_backend () =
  let b = vm_backend () in
  let retried = ref false in
  let wait ~deadline_ns =
    if b.Vm.Backend.wait ~deadline_ns then begin
      retried := false;
      true
    end
    else if !retried then false
    else begin
      retried := true;
      true
    end
  in
  { b with Vm.Backend.wait }

let vm_pass ?probe ?(trace = false) ?(pr = params) ~seed () =
  let inst = instance () in
  let start = Clock.now_ns () in
  let backend = vm_backend () in
  let wrapped =
    match probe with Some p -> Probe.wrap p backend | None -> backend
  in
  let dispatches = ref 0 and events = ref [] in
  let status, stats =
    Pthreads.run ~backend:wrapped ~seed ~trace (fun proc ->
        if trace then Vm.Trace.set_capacity proc.Types.trace (Some Probe.trace_capacity);
        scenario ?probe proc pr ~seed inst;
        dispatches := Pthreads.dispatch_count proc;
        if trace then events := Pthread.trace_events proc;
        0)
  in
  let stop = Clock.now_ns () in
  (match status with
  | Some (Types.Exited 0) -> ()
  | _ -> failwith "vm_serving: process did not exit cleanly");
  {
    insts = [| inst |];
    start;
    stop;
    stats;
    dispatches = [| !dispatches |];
    timer_peak = Vm.Unix_kernel.armed_timer_peak backend.Vm.Backend.kernel;
    events = !events;
    steals = 0;
    remote_wakes = 0;
  }

(* [probes.(i)] instruments shard [i]'s backend (inside [Shard]'s own
   wrapper, so its wait counts are the shard's idle polls). *)
let sharded_pass ?probes ?(trace = false) ?(pr = params) ~domains ~seed () =
  let insts = Array.init domains (fun _ -> instance ()) in
  let kernels = Array.make domains None in
  let start = Clock.now_ns () in
  let backend_for i =
    let b = shard_backend () in
    kernels.(i) <- Some b.Vm.Backend.kernel;
    match probes with Some ps -> Probe.wrap ps.(i) b | None -> b
  in
  let o =
    Shard.run_parallel ~domains ~backend_for ~seed ~trace (fun proc ->
        List.init domains (fun i ->
            Shard.spawn proc ~home:i (fun proc' ->
                scenario proc' pr ~seed:((seed * 64) + i) insts.(i);
                0))
        |> List.iter (fun h ->
               match Shard.await proc h with
               | Types.Exited 0 -> ()
               | _ -> failwith "sharded_serving: an instance failed");
        0)
  in
  let stop = Clock.now_ns () in
  (match o.Shard.status with
  | Types.Exited 0 -> ()
  | _ -> failwith "sharded_serving: pool did not exit cleanly");
  {
    insts;
    start;
    stop;
    stats = o.Shard.stats;
    dispatches = o.Shard.dispatches;
    timer_peak =
      Array.fold_left
        (fun m k ->
          match k with
          | Some k -> max m (Vm.Unix_kernel.armed_timer_peak k)
          | None -> m)
        0 kernels;
    events = [];
    steals = o.Shard.steals;
    remote_wakes = o.Shard.remote_wakes;
  }
