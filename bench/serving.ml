(* The flagship serving scenario: an echo server under closed-loop client
   load with a mid-run open-loop traffic spike and heavy-tailed (bounded
   Pareto) service times.

   The handler and the client loop are written once, against the portable
   [Pthreads.Net] / [Pthread] API, and run byte-for-byte identical on both
   backends: on the virtual backend the load is simulated (thousands of
   clients in virtual time, deterministic per seed); on the Unix backend
   the same code serves real loopback TCP sockets in host time.

   Request latency is measured client-side from [Pthread.now] deltas and
   accumulated in an [Obs.Histogram]; the spike window of the run's trace
   can be exported as a Perfetto/Chrome trace. *)

open Pthreads

let msg_len = 64

(* ------------------------------------------------------------------ *)
(* Load parameters                                                     *)
(* ------------------------------------------------------------------ *)

type params = {
  clients : int;  (** closed-loop clients, connected for the whole run *)
  requests : int;  (** round trips per closed-loop client *)
  spike_clients : int;  (** open-loop burst arriving at [spike_at_ns] *)
  spike_requests : int;  (** round trips per spike client *)
  think_ns : int;  (** mean think time between a client's requests *)
  service_ns : int;  (** minimum (Pareto scale) per-request service time *)
  spike_at_ns : int;  (** burst arrival, engine-clock ns after start *)
  seed : int;
}

(* The virtual backend simulates thousands of clients; the Unix backend
   holds real fds (two per connection), so its fleet is smaller and its
   wall clock is real. *)
let vm_params ~smoke =
  {
    clients = (if smoke then 200 else 2000);
    requests = 5;
    spike_clients = (if smoke then 50 else 500);
    spike_requests = 1;
    think_ns = 2_000_000;
    service_ns = 200_000;
    spike_at_ns = 4_000_000;
    seed = 42;
  }

(* The closed-loop fleet is sized so a single core runs at moderate
   utilization: with N clients and think time Z, offered load is N/(Z+RTT)
   requests per second, and at ~30 us of library work per request a
   100-client / 1 ms-think fleet saturates one core outright.  Under
   saturation the dispatch histogram measures queue depth (every wakeup
   parks behind every other runnable thread), not scheduler latency —
   so the full run uses 50 clients thinking 3 ms, which exercises the
   same code at rho ~ 0.5 where the Ready -> dispatch figure is actually
   attributable to the engine.  Same total round trips as before
   (50 x 40 = 2000 + spike). *)
let unix_params ~smoke =
  {
    clients = (if smoke then 25 else 50);
    requests = (if smoke then 5 else 40);
    spike_clients = (if smoke then 25 else 50);
    spike_requests = 1;
    think_ns = (if smoke then 1_000_000 else 3_000_000);
    service_ns = 200_000;
    spike_at_ns = 5_000_000;
    seed = 42;
  }

(* ------------------------------------------------------------------ *)
(* The workload — identical source on both backends                    *)
(* ------------------------------------------------------------------ *)

(* Bounded Pareto service times: scale [xm], shape 1.3, capped at 50 xm.
   Heavy enough that the p99 sits far from the median. *)
let pareto rng ~xm =
  let u = max 1e-9 (Vm.Rng.float rng 1.0) in
  let x = float_of_int xm /. (u ** (1.0 /. 1.3)) in
  int_of_float (Float.min x (50.0 *. float_of_int xm))

let read_exactly proc conn buf =
  let rec fill pos =
    if pos >= Bytes.length buf then true
    else
      let n = Net.read proc conn buf ~pos ~len:(Bytes.length buf - pos) in
      if n = 0 then false else fill (pos + n)
  in
  fill 0

(* One connection's server side: read a request, "work" for a heavy-tailed
   service time, echo it back; EOF ends the session. *)
let echo_handler proc conn ~service_ns rng =
  let buf = Bytes.create msg_len in
  let rec serve () =
    if read_exactly proc conn buf then begin
      Pthread.delay proc ~ns:(pareto rng ~xm:service_ns);
      Net.write_all proc conn buf ~pos:0 ~len:msg_len;
      serve ()
    end
  in
  serve ();
  Net.close proc conn

(* One client session: [requests] round trips, each latency recorded in
   [hist] (microseconds).  Closed-loop clients think between requests;
   spike clients pass [think_ns = 0] and hammer. *)
let client_session proc ~port ~requests ~think_ns ~hist ~completed rng id =
  let conn = Net.connect proc ~port in
  let payload = Bytes.make msg_len (Char.chr (Char.code 'a' + (id mod 26))) in
  let back = Bytes.create msg_len in
  for _ = 1 to requests do
    if think_ns > 0 then Pthread.delay proc ~ns:(1 + Vm.Rng.int rng think_ns);
    let t0 = Pthread.now proc in
    Net.write_all proc conn payload ~pos:0 ~len:msg_len;
    if not (read_exactly proc conn back) then failwith "serving: early EOF";
    if not (Bytes.equal back payload) then failwith "serving: corrupt echo";
    Obs.Histogram.add hist ((Pthread.now proc - t0) / 1_000);
    incr completed
  done;
  Net.close proc conn

(* ------------------------------------------------------------------ *)
(* One measured run                                                    *)
(* ------------------------------------------------------------------ *)

type row = {
  sv_backend : string;
  sv_params : params;
  sv_completed : int;  (** round trips that came back verified *)
  sv_elapsed_ns : int;  (** engine clock: virtual on vm, host on unix *)
  sv_wall_s : float;  (** host wall clock for the whole run *)
  sv_throughput_rps : float;  (** completed / elapsed engine-clock seconds *)
  sv_hist : Obs.Histogram.t;  (** request latency, microseconds *)
  sv_dispatch : Obs.Histogram.t option;
      (** scheduling (Ready -> dispatch) latency via [Obs.Latency], ns;
          [None] unless [trace] *)
  sv_switches : int;
  sv_events : Vm.Trace.event list;  (** empty unless [trace] *)
}

(* The whole scenario — server, closed-loop fleet, spike — against one
   engine, so a single run and each shard of a parallel sweep execute
   the exact same code.  [hist] and [completed] must be private to the
   calling engine's shard: client threads write them concurrently in
   parallel mode. *)
let scenario proc ~hist ~completed (p : params) =
  let master = Vm.Rng.create p.seed in
  let lst = Net.listen proc ~port:0 () in
  let port = Net.port proc lst in
  let total_conns = p.clients + p.spike_clients in
  let server =
    Pthread.create_unit proc (fun () ->
        for i = 1 to total_conns do
          let conn = Net.accept proc lst in
          let rng = Vm.Rng.fork master i in
          ignore
            (Pthread.create_unit proc (fun () ->
                 echo_handler proc conn ~service_ns:p.service_ns rng))
        done)
  in
  let clients =
    List.init p.clients (fun i ->
        let rng = Vm.Rng.fork master (1000 + i) in
        Pthread.create_unit proc (fun () ->
            client_session proc ~port ~requests:p.requests
              ~think_ns:p.think_ns ~hist ~completed rng i))
  in
  (* the traffic spike: an open-loop burst arriving mid-run *)
  let spike =
    Pthread.create_unit proc (fun () ->
        Pthread.delay proc ~ns:p.spike_at_ns;
        let burst =
          List.init p.spike_clients (fun i ->
              let rng = Vm.Rng.fork master (2000 + i) in
              Pthread.create_unit proc (fun () ->
                  client_session proc ~port ~requests:p.spike_requests
                    ~think_ns:0 ~hist ~completed rng (p.clients + i)))
        in
        List.iter (fun t -> ignore (Pthread.join proc t)) burst)
  in
  List.iter (fun t -> ignore (Pthread.join proc t)) clients;
  ignore (Pthread.join proc spike);
  ignore (Pthread.join proc server);
  Net.close_listener proc lst

let run ~backend ~name ?(trace = false) (p : params) =
  let hist = Obs.Histogram.create () in
  let completed = ref 0 in
  let elapsed = ref 0 in
  let events = ref [] in
  let wall0 = Vm.Real_clock.now_s () in
  let status, stats =
    Pthreads.run ~backend ~seed:p.seed ~trace (fun proc ->
        let t_start = Pthread.now proc in
        scenario proc ~hist ~completed p;
        elapsed := Pthread.now proc - t_start;
        events := Pthread.trace_events proc;
        0)
  in
  (match status with
  | Some (Types.Exited 0) -> ()
  | _ -> failwith (Printf.sprintf "serving(%s): scenario failed" name));
  let expected = (p.clients * p.requests) + (p.spike_clients * p.spike_requests) in
  if !completed <> expected then
    failwith
      (Printf.sprintf "serving(%s): %d/%d requests completed" name !completed
         expected);
  let wall_s = Vm.Real_clock.now_s () -. wall0 in
  {
    sv_backend = name;
    sv_params = p;
    sv_completed = !completed;
    sv_elapsed_ns = !elapsed;
    sv_wall_s = wall_s;
    sv_throughput_rps =
      (if !elapsed <= 0 then 0.0
       else float_of_int !completed /. (float_of_int !elapsed /. 1e9));
    sv_hist = hist;
    sv_dispatch =
      (match !events with [] -> None | es -> Some (Obs.Latency.of_events es));
    sv_switches = stats.switches;
    sv_events = !events;
  }

(* ------------------------------------------------------------------ *)
(* Parallel sweep: one echo instance per shard, aggregate throughput    *)
(* ------------------------------------------------------------------ *)

type par_row = {
  sp_domains : int;
  sp_cores : int;  (** [Domain.recommended_domain_count] on this host *)
  sp_completed : int;  (** verified round trips summed over instances *)
  sp_wall_s : float;
  sp_throughput_rps : float;  (** aggregate: completed / host wall seconds *)
  sp_p50_us : int;  (** over the merged per-instance latency histograms *)
  sp_p99_us : int;
  sp_steals : int;
  sp_speedup : float;  (** aggregate throughput vs the domains=1 row *)
}

(* Weak scaling: [domains] independent echo instances, each the full
   [params] fleet homed on its own shard (listener, server and clients
   all local, so the steady state exercises shard-local scheduling and
   the pool only pays cross-shard traffic at spawn/await).  Run on the
   virtual backend — a fresh kernel per shard keeps instances isolated
   and the simulated delays (think time, Pareto service) cost no host
   time, so host wall clock measures exactly the engine work that
   parallelism is supposed to spread.  Throughput is aggregate over
   instances; latency percentiles come from the merged histograms. *)
let run_sharded ~domains (p : params) =
  let cores = Domain.recommended_domain_count () in
  let hists = Array.init (max 1 domains) (fun _ -> Obs.Histogram.create ()) in
  let completed = Array.make (max 1 domains) 0 in
  let wall0 = Vm.Real_clock.now_s () in
  let steals = ref 0 in
  let instance proc i =
    let done_ = ref 0 in
    scenario proc ~hist:hists.(i) ~completed:done_ p;
    completed.(i) <- !done_;
    0
  in
  (if domains <= 1 then begin
     let status, _ =
       Pthreads.run
         ~backend:(vm_backend ~profile:Vm.Cost_model.free ())
         ~seed:p.seed
         (fun proc -> instance proc 0)
     in
     match status with
     | Some (Types.Exited 0) -> ()
     | _ -> failwith "serving parallel: single-domain run failed"
   end
   else begin
     let o =
       Shard.run_parallel ~domains
         ~backend_for:(fun _ ->
           Vm.Backend.virtual_ Vm.Cost_model.free)
         ~seed:p.seed
         (fun proc ->
           let hs =
             List.init domains (fun i ->
                 Shard.spawn proc ~home:i (fun proc' -> instance proc' i))
           in
           List.iter
             (fun h ->
               match Shard.await proc h with
               | Types.Exited 0 -> ()
               | _ -> failwith "serving parallel: instance failed")
             hs;
           0)
     in
     (match o.Shard.status with
     | Types.Exited 0 -> ()
     | _ -> failwith "serving parallel: sharded run failed");
     steals := o.Shard.steals
   end);
  let wall_s = Vm.Real_clock.now_s () -. wall0 in
  let expected_one =
    (p.clients * p.requests) + (p.spike_clients * p.spike_requests)
  in
  let total = Array.fold_left ( + ) 0 completed in
  if total <> expected_one * max 1 domains then
    failwith
      (Printf.sprintf "serving parallel: %d/%d requests completed" total
         (expected_one * max 1 domains));
  let merged = Obs.Histogram.create () in
  Array.iter (fun h -> Obs.Histogram.merge_into merged h) hists;
  {
    sp_domains = max 1 domains;
    sp_cores = cores;
    sp_completed = total;
    sp_wall_s = wall_s;
    sp_throughput_rps =
      (if wall_s <= 0.0 then 0.0 else float_of_int total /. wall_s);
    sp_p50_us = Obs.Histogram.percentile merged 50.0;
    sp_p99_us = Obs.Histogram.percentile merged 99.0;
    sp_steals = !steals;
    sp_speedup = 1.0 (* filled by the sweep *);
  }

let sweep_sharded ~domain_counts (p : params) =
  let rows = List.map (fun d -> run_sharded ~domains:d p) domain_counts in
  match rows with
  | [] -> []
  | base :: _ ->
      List.map
        (fun r ->
          {
            r with
            sp_speedup =
              (if base.sp_throughput_rps <= 0.0 then 0.0
               else r.sp_throughput_rps /. base.sp_throughput_rps);
          })
        rows

let pp_par_row ppf r =
  Format.fprintf ppf
    "domains %d (host cores %d): %d reqs in %.2f s  %.0f req/s aggregate  \
     p50 %d us  p99 %d us  %d steals  speedup %.2fx"
    r.sp_domains r.sp_cores r.sp_completed r.sp_wall_s r.sp_throughput_rps
    r.sp_p50_us r.sp_p99_us r.sp_steals r.sp_speedup

let par_row_json r =
  Printf.sprintf
    "{\"domains\":%d,\"cores\":%d,\"completed\":%d,\"wall_s\":%.4f,\
     \"throughput_rps\":%.1f,\"p50_us\":%d,\"p99_us\":%d,\"steals\":%d,\
     \"speedup_vs_1\":%.3f}"
    r.sp_domains r.sp_cores r.sp_completed r.sp_wall_s r.sp_throughput_rps
    r.sp_p50_us r.sp_p99_us r.sp_steals r.sp_speedup

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_row ppf r =
  Format.fprintf ppf
    "@[<v>%-5s  %d clients (+%d spike)  %d reqs  engine %.1f ms  wall %.2f s@,\
    \       %.0f req/s   latency p50 %d us  p90 %d us  p99 %d us  max %d us@,\
    \       %d context switches@]"
    r.sv_backend r.sv_params.clients r.sv_params.spike_clients r.sv_completed
    (float_of_int r.sv_elapsed_ns /. 1e6)
    r.sv_wall_s r.sv_throughput_rps
    (Obs.Histogram.percentile r.sv_hist 50.0)
    (Obs.Histogram.percentile r.sv_hist 90.0)
    (Obs.Histogram.percentile r.sv_hist 99.0)
    (Obs.Histogram.max_value r.sv_hist)
    r.sv_switches;
  match r.sv_dispatch with
  | None -> ()
  | Some d ->
      Format.fprintf ppf
        "@,       dispatch latency p50 %d ns  p99 %d ns (%d dispatches)"
        (Obs.Histogram.percentile d 50.0)
        (Obs.Histogram.percentile d 99.0)
        (Obs.Histogram.count d)

let row_json r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"backend\":\"%s\",\"clients\":%d,\"spike_clients\":%d,\
        \"requests\":%d,\"elapsed_ns\":%d,\"wall_s\":%.4f,\
        \"throughput_rps\":%.1f,\"p50_us\":%d,\"p90_us\":%d,\"p99_us\":%d,\
        \"max_us\":%d,\"switches\":%d,\"latency_hist\":"
       r.sv_backend r.sv_params.clients r.sv_params.spike_clients
       r.sv_completed r.sv_elapsed_ns r.sv_wall_s r.sv_throughput_rps
       (Obs.Histogram.percentile r.sv_hist 50.0)
       (Obs.Histogram.percentile r.sv_hist 90.0)
       (Obs.Histogram.percentile r.sv_hist 99.0)
       (Obs.Histogram.max_value r.sv_hist)
       r.sv_switches);
  Obs.Histogram.add_json b r.sv_hist;
  (match r.sv_dispatch with
  | None -> ()
  | Some d ->
      Buffer.add_string b ",\"dispatch_hist\":";
      Obs.Histogram.add_json b d);
  Buffer.add_char b '}';
  Buffer.contents b

(* The spike window of the trace — from just before the burst arrives
   until the longest spike request can have drained (the 50 xm Pareto
   cap plus a scheduling allowance) — as Perfetto/Chrome trace-event
   JSON.  Bounding the window keeps the artifact reviewable; the full
   event list stays available in [sv_events]. *)
let spike_trace_json r =
  let from_ns = max 0 (r.sv_params.spike_at_ns - 500_000) in
  let until_ns = r.sv_params.spike_at_ns + (55 * r.sv_params.service_ns) in
  let window =
    List.filter
      (fun e -> e.Vm.Trace.t_ns >= from_ns && e.Vm.Trace.t_ns <= until_ns)
      r.sv_events
  in
  Obs.Chrome_trace.export
    ~process_name:(Printf.sprintf "echo-server (%s backend)" r.sv_backend)
    window
