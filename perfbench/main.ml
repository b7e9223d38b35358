(* The repo benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--commit C] [--source-digest D]

   --trace 0 runs workload NAME for about S seconds of measurement and
   reports the end-to-end metrics; --trace 1 reports the per-layer metrics
   (see README.md).  The last line of standard output is the result:
   {"correct", "attempted", "failed", "metrics"}; the full document, with
   host metadata and every distribution's sample count, is written to
   .perfbench-out/NAME-trace{0,1}.json after it passes [Doc.validate]. *)

open Perfbench

let nproc = Domain.recommended_domain_count ()

(* Real TCP connections in the echo workloads, and shards in the sharded
   one: one per core (a pool needs at least two). *)
let conns = nproc
let domains = max 2 nproc

(* The open loop's offered load, requests/s over all connections: about a
   quarter of what the closed loop completes on a 2-core x86 host.  The
   generator paces with [Pthread.delay], whose ~50 us overshoot on the
   Unix backend bounds how fine a schedule it can keep; at half of
   closed-loop capacity it falls behind. *)
let open_rate = 20_000

(* In-run set-up repetitions whose median is [setup_s]. *)
let setup_reps = 25

(* A generator whose p99 send lag exceeds this fell behind its schedule. *)
let gen_lag_limit_ns = 1_000_000

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable flags : string list;
  mutable metrics : (string * string * float) list;  (** name, unit, value *)
  mutable dists : (string * Doc.t) list;
  mutable params : (string * Doc.t) list;
}

let report () =
  {
    attempted = 0;
    failed = 0;
    errors = [];
    flags = [];
    metrics = [];
    dists = [];
    params = [];
  }

let metric r name unit_ value = r.metrics <- (name, unit_, value) :: r.metrics
let param r name v = r.params <- (name, v) :: r.params
let error r msg = r.errors <- msg :: r.errors

let count r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let ns_to_s ns = float_of_int ns /. 1e9

(* A distribution's median and p99 as metrics [base.p50] / [base.p99],
   plus the full summary with its sample count.  A percentile without ten
   samples beyond it is not published, and the result is marked
   incorrect: the run was too short to measure it.  [~publish:false]
   records the summary only. *)
let dist r ?(publish = true) ~base ~unit_ ~scale samples =
  match Samples.summarize samples with
  | None -> error r (base ^ ": no samples")
  | Some s ->
      r.dists <- (base, Doc.of_summary ~scale s) :: r.dists;
      let pub name = function
        | Some v -> metric r name unit_ (float_of_int v /. scale)
        | None ->
            error r
              (Printf.sprintf "%s: %d samples, too few beyond the percentile"
                 name s.Samples.n)
      in
      if publish then begin
        pub (base ^ ".p50") s.Samples.p50;
        pub (base ^ ".p99") s.Samples.p99
      end

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.0
            | exception _ -> scan ())
      in
      let v = scan () in
      close_in ic;
      v

(* The batch workloads run a fixed number of whole passes: [seconds] over
   the pass's nominal length on a 2-core x86 host.  A count fixed by the
   arguments, not by a clock, keeps the work (and the memory it leaves
   behind) the same on every run of a seed, however fast the host is. *)
let passes_for ?(min = 1) ~nominal_s seconds =
  max min (int_of_float (Float.round (seconds /. nominal_s)))

let repeat n f = List.init n f

(* ------------------------------------------------------------------ *)
(* End-to-end runs                                                     *)
(* ------------------------------------------------------------------ *)

(* Latency as published: [p50_us] and [p99_us] are exact percentiles of
   the whole run, except in the open loop.  There a host stall backs up
   every request scheduled behind it, so the whole-run tail measures how
   often the host stalled; the open loop publishes instead the median,
   over consecutive [open_window] requests in completion order (about
   100 ms), of each window's exact percentile.  The whole-run
   distribution, with its count, is in the document either way. *)
let open_window = 2000

let e2e_latency r ?window samples =
  let pooled = Samples.create () in
  List.iter (Samples.append pooled) samples;
  dist r ~publish:false ~base:"latency_us" ~unit_:"us" ~scale:1e3 pooled;
  let pick num den =
    match window with
    | None -> Option.map float_of_int (Samples.quantile (Samples.sorted pooled) ~num ~den)
    | Some size -> (
        match Samples.window_quantiles samples ~size ~num ~den with
        | [] -> None
        | qs -> Some (Samples.median_float (List.map float_of_int qs)))
  in
  List.iter
    (fun (name, num, den) ->
      match pick num den with
      | Some v -> metric r name "us" (v /. 1e3)
      | None -> error r (name ^ ": too few samples to publish"))
    [ ("p50_us", 1, 2); ("p99_us", 99, 100) ];
  Option.iter (fun size -> param r "latency_window_requests" (Doc.Int size)) window

let echo_e2e r ~mode ~seed ~seconds =
  let setups =
    List.init setup_reps (fun _ ->
        ns_to_s (Echo.run ~mode ~conns ~seed ~duration_ns:0 ()).Echo.setup_ns)
  in
  let run =
    Echo.run ~mode ~conns ~seed ~duration_ns:(int_of_float (seconds *. 1e9)) ()
  in
  (* unverified and unanswered requests alike: completed must equal attempted *)
  count r ~attempted:run.Echo.attempted ~failed:(run.Echo.attempted - run.Echo.completed);
  metric r "setup_s" "s" (Samples.median_float (ns_to_s run.Echo.setup_ns :: setups));
  metric r "ops_per_s" "1/s"
    (float_of_int run.Echo.completed /. ns_to_s (run.Echo.end_at - run.Echo.ready_at));
  e2e_latency r
    ?window:(match mode with Echo.Closed -> None | Echo.Open _ -> Some open_window)
    [ run.Echo.lat_ns ];
  param r "connections" (Doc.Int conns);
  param r "message_bytes" (Doc.Int Echo.msg_len);
  match mode with
  | Echo.Closed -> param r "loop" (Doc.Str "closed")
  | Echo.Open { rate } ->
      param r "loop" (Doc.Str "open");
      param r "rate_per_s" (Doc.Int rate);
      param r "server_work_rounds" (Doc.Int Echo.work_rounds);
      dist r ~publish:false ~base:"open.gen_lag_us" ~unit_:"us" ~scale:1e3
        run.Echo.gen_lag_ns;
      (match Samples.summarize run.Echo.gen_lag_ns with
      | Some { Samples.p99 = Some p99; _ } when p99 > gen_lag_limit_ns ->
          r.flags <-
            Printf.sprintf "generator fell behind: send lag p99 %d us" (p99 / 1000)
            :: r.flags
      | _ -> ())

let serving_params r (pr : Serving.params) =
  param r "loop" (Doc.Str "closed fleet + open-loop spike");
  param r "clients" (Doc.Int pr.Serving.clients);
  param r "requests_per_client" (Doc.Int pr.Serving.requests);
  param r "spike_clients" (Doc.Int pr.Serving.spike_clients);
  param r "think_ns_max" (Doc.Int pr.Serving.think_ns);
  param r "service_ns_pareto_scale" (Doc.Int pr.Serving.service_ns)

let serving_e2e r ps =
  let expected = Serving.expected Serving.params in
  List.iter
    (fun (p : Serving.pass) ->
      let n = Array.length p.Serving.insts in
      count r ~attempted:(n * expected) ~failed:((n * expected) - Serving.completed p))
    ps;
  let sum f = List.fold_left (fun a p -> a + f p) 0 ps in
  metric r "setup_s" "s"
    (Samples.median_float (List.map (fun p -> ns_to_s (Serving.setup_ns p)) ps));
  metric r "ops_per_s" "1/s"
    (float_of_int (sum Serving.completed) /. ns_to_s (sum Serving.measured_ns));
  e2e_latency r
    (List.concat_map
       (fun (p : Serving.pass) ->
         Array.to_list (Array.map (fun i -> i.Serving.host_ns) p.Serving.insts))
       ps);
  param r "passes" (Doc.Int (List.length ps));
  serving_params r Serving.params

(* Every pass of one seed must give the same virtual-time latencies, bit
   for bit: the single-domain engine is deterministic. *)
let check_determinism r (ps : Serving.pass list) =
  match ps with
  | [] | [ _ ] -> error r "vm_serving: fewer than two passes, determinism unchecked"
  | first :: rest ->
      let key (p : Serving.pass) = Samples.sorted p.Serving.insts.(0).Serving.virt_ns in
      let k0 = key first in
      List.iteri
        (fun i p ->
          if key p <> k0 then begin
            r.failed <- r.failed + Serving.completed p;
            error r (Printf.sprintf "vm_serving: pass %d virtual latencies differ from pass 0" (i + 1))
          end)
        rest;
      (match Samples.summarize first.Serving.insts.(0).Serving.virt_ns with
      | Some s -> r.dists <- ("virtual_latency_us", Doc.of_summary ~scale:1e3 s) :: r.dists
      | None -> ())

let explore_e2e r ~seed ~seconds =
  let a = Dpor.acc () in
  let ps =
    repeat (passes_for ~nominal_s:3.0 seconds) (fun i ->
        Dpor.pass a ~trace:false ~seed:(seed + i))
  in
  count r ~attempted:a.Dpor.attempted ~failed:a.Dpor.failed;
  List.iter (error r) a.Dpor.errors;
  metric r "setup_s" "s"
    (Samples.median_float
       (Array.to_list (Array.map ns_to_s (Samples.sorted a.Dpor.setup_ns))));
  metric r "ops_per_s" "1/s"
    (float_of_int a.Dpor.schedules /. ns_to_s (a.Dpor.dpor_ns + a.Dpor.pct_ns));
  e2e_latency r [ a.Dpor.lat_ns ];
  param r "passes" (Doc.Int (List.length ps));
  param r "dpor_scenarios"
    (Doc.List (List.map (fun ((s : Check.Scenarios.t), _) -> Doc.Str s.name) Dpor.dpor_set));
  param r "pct_scenario" (Doc.Str Dpor.pct_scenario.Check.Scenarios.name);
  param r "pct_runs_per_pass" (Doc.Int Dpor.pct_runs)

let end_to_end r ~workload ~seed ~seconds =
  (match workload with
  | "unix_echo" -> echo_e2e r ~mode:Echo.Closed ~seed ~seconds
  | "unix_open" -> echo_e2e r ~mode:(Echo.Open { rate = open_rate }) ~seed ~seconds
  | "vm_serving" ->
      let ps = repeat (passes_for ~min:2 ~nominal_s:0.25 seconds) (fun _ -> Serving.vm_pass ~seed ()) in
      serving_e2e r ps;
      check_determinism r ps;
      param r "domains" (Doc.Int 1)
  | "sharded_serving" ->
      let ps =
        repeat (passes_for ~nominal_s:3.3 seconds) (fun _ ->
            Serving.sharded_pass ~domains ~seed ())
      in
      serving_e2e r ps;
      param r "domains" (Doc.Int domains)
  | "explore" -> explore_e2e r ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w));
  metric r "peak_rss_mb" "MB" (peak_rss_mb ())

(* ------------------------------------------------------------------ *)
(* Per-layer (traced) run                                              *)
(* ------------------------------------------------------------------ *)

let gc_delta r ~workload ~ops f =
  let g0 = Gc.quick_stat () in
  let x = f () in
  let g1 = Gc.quick_stat () in
  metric r ("gc.minor_words_per_req." ^ workload) "words"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (max 1 (ops x)));
  metric r ("gc.major_collections." ^ workload) "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  x

let overhead r ~workload ~base ~traced =
  metric r ("trace.overhead." ^ workload) "ratio" (traced /. base)

(* Ready -> Dispatch_in per thread, exact, from the engine's events; a
   thread re-marked ready keeps its first timestamp. *)
let ready_waits events =
  let pending = Hashtbl.create 64 and s = Samples.create () in
  List.iter
    (fun (e : Vm.Trace.event) ->
      match e.Vm.Trace.kind with
      | Vm.Trace.Ready ->
          if not (Hashtbl.mem pending e.tid) then Hashtbl.replace pending e.tid e.t_ns
      | Vm.Trace.Dispatch_in -> (
          match Hashtbl.find_opt pending e.tid with
          | Some t ->
              Samples.add s (e.t_ns - t);
              Hashtbl.remove pending e.tid
          | None -> ())
      | _ -> ())
    events;
  s

let echo_counts r (run : Echo.run) =
  count r ~attempted:run.Echo.attempted ~failed:(run.Echo.attempted - run.Echo.completed)

let layer_unix_echo r ~seed ~budget =
  let half = budget / 2 in
  let u =
    gc_delta r ~workload:"unix_echo" ~ops:(fun u -> u.Echo.completed) (fun () ->
        Echo.run ~mode:Echo.Closed ~conns ~seed ~duration_ns:half ())
  in
  let p = Probe.create () in
  let t = Echo.run ~mode:Echo.Closed ~conns ~seed ~duration_ns:half ~probe:p ~trace:true () in
  echo_counts r u;
  echo_counts r t;
  let reqs = t.Echo.completed in
  let wall (x : Echo.run) = x.Echo.end_at - x.Echo.ready_at in
  overhead r ~workload:"unix_echo"
    ~base:(ratio (wall u) u.Echo.completed)
    ~traced:(ratio (wall t) reqs);
  metric r "real_kernel.pump.calls_per_req" "count" (ratio p.Probe.pump_calls reqs);
  metric r "real_kernel.pump.ns_mean" "ns" (ratio p.Probe.pump_ns p.Probe.pump_calls);
  metric r "real_kernel.wait.calls_per_req" "count" (ratio p.Probe.wait_calls reqs);
  metric r "real_kernel.wait.idle_frac" "ratio" (ratio p.Probe.wait_ns (wall t));
  dist r ~base:"net.read.wait_us" ~unit_:"us" ~scale:1e3 p.Probe.net_read_ns;
  dist r ~base:"net.write.us" ~unit_:"us" ~scale:1e3 p.Probe.net_write_ns;
  metric r "net.reads_per_req" "count" (ratio (Samples.length p.Probe.net_read_ns) reqs);
  let st = Option.get t.Echo.stats in
  metric r "kernel.signals_per_req" "count" (ratio st.Pthreads.signals_posted reqs);
  metric r "kernel.signals_lost_frac" "ratio"
    (ratio st.Pthreads.signals_lost st.Pthreads.signals_posted)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let layer_unix_open r ~seed ~budget =
  let half = budget / 2 in
  let mode = Echo.Open { rate = open_rate } in
  let c0 = cpu_s () in
  let u =
    gc_delta r ~workload:"unix_open" ~ops:(fun u -> u.Echo.completed) (fun () ->
        Echo.run ~mode ~conns ~seed ~duration_ns:half ())
  in
  let c1 = cpu_s () in
  let p = Probe.create () in
  let t = Echo.run ~mode ~conns ~seed ~duration_ns:half ~probe:p ~trace:true () in
  let c2 = cpu_s () in
  echo_counts r u;
  echo_counts r t;
  let reqs = t.Echo.completed in
  (* the offered rate fixes wall time, so the base is CPU time per request *)
  overhead r ~workload:"unix_open"
    ~base:((c1 -. c0) /. float_of_int (max 1 u.Echo.completed))
    ~traced:((c2 -. c1) /. float_of_int (max 1 reqs));
  metric r "open.pump.calls_per_req" "count" (ratio p.Probe.pump_calls reqs);
  metric r "open.pump.ns_mean" "ns" (ratio p.Probe.pump_ns p.Probe.pump_calls);
  dist r ~base:"real_kernel.wait.overshoot_us" ~unit_:"us" ~scale:1e3
    p.Probe.wait_overshoot_ns;
  dist r ~base:"pthread.delay.overshoot_us" ~unit_:"us" ~scale:1e3
    p.Probe.delay_overshoot_ns;
  dist r ~base:"open.gen_lag_us" ~unit_:"us" ~scale:1e3 t.Echo.gen_lag_ns;
  dist r ~base:"engine.ready_wait_us" ~unit_:"us" ~scale:1e3 (ready_waits t.Echo.events)

(* the per-layer passes use a shorter mix, so a traced pass's events fit *)
let layer_params = { Serving.params with Serving.requests = 2 }

let serving_counts r (p : Serving.pass) =
  let e = Array.length p.Serving.insts * Serving.expected layer_params in
  count r ~attempted:e ~failed:(e - Serving.completed p)

let layer_vm_serving r ~seed ~budget =
  let us =
    gc_delta r ~workload:"vm_serving"
      ~ops:(List.fold_left (fun a p -> a + Serving.completed p) 0)
      (fun () ->
        repeat (passes_for ~nominal_s:0.1 (ns_to_s (budget / 2))) (fun _ ->
            Serving.vm_pass ~pr:layer_params ~seed ()))
  in
  let t = Serving.vm_pass ~pr:layer_params ~trace:true ~seed () in
  List.iter (serving_counts r) us;
  serving_counts r t;
  let u = List.hd us in
  let reqs = Serving.completed u in
  let wall (p : Serving.pass) = p.Serving.stop - p.Serving.start in
  let mean_wall =
    List.fold_left (fun a p -> a + wall p) 0 us / List.length us
  in
  overhead r ~workload:"vm_serving" ~base:(float_of_int mean_wall)
    ~traced:(float_of_int (wall t));
  metric r "engine.dispatches_per_req" "count" (ratio u.Serving.dispatches.(0) reqs);
  metric r "engine.switches_per_req" "count" (ratio u.Serving.stats.Pthreads.switches reqs);
  metric r "engine.kernel_traps_per_req" "count"
    (ratio u.Serving.stats.Pthreads.kernel_traps reqs);
  metric r "engine.host_ns_per_dispatch" "ns" (ratio mean_wall u.Serving.dispatches.(0));
  metric r "timer.armed_peak" "count" (float_of_int u.Serving.timer_peak);
  let reports = Obs.Contention.of_events t.Serving.events in
  let acq = List.fold_left (fun a c -> a + c.Obs.Contention.acquisitions) 0 reports in
  let con = List.fold_left (fun a c -> a + c.Obs.Contention.contended) 0 reports in
  metric r "mutex.contended_frac" "ratio" (ratio con acq)

let layer_sharded r ~seed ~budget =
  let us =
    gc_delta r ~workload:"sharded_serving"
      ~ops:(List.fold_left (fun a p -> a + Serving.completed p) 0)
      (fun () ->
        repeat (passes_for ~nominal_s:1.4 (ns_to_s (budget / 2))) (fun _ ->
            Serving.sharded_pass ~pr:layer_params ~domains ~seed ()))
  in
  let probes = Array.init domains (fun _ -> Probe.create ()) in
  let t = Serving.sharded_pass ~probes ~trace:true ~pr:layer_params ~domains ~seed () in
  List.iter (serving_counts r) us;
  serving_counts r t;
  let wall (p : Serving.pass) = p.Serving.stop - p.Serving.start in
  let mean_wall = List.fold_left (fun a p -> a + wall p) 0 us / List.length us in
  overhead r ~workload:"sharded_serving" ~base:(float_of_int mean_wall)
    ~traced:(float_of_int (wall t));
  let reqs = Serving.completed t in
  let sum f = Array.fold_left (fun a p -> a + f p) 0 probes in
  let waits = sum (fun p -> p.Probe.wait_calls) in
  let away = sum (fun p -> p.Probe.wait_ns + p.Probe.gap_ns) in
  metric r "shard.steals" "count" (float_of_int t.Serving.steals);
  metric r "shard.remote_wakes_per_req" "count" (ratio t.Serving.remote_wakes reqs);
  let d = t.Serving.dispatches in
  let mx = Array.fold_left max 0 d and total = Array.fold_left ( + ) 0 d in
  metric r "shard.dispatch_imbalance" "ratio"
    (float_of_int mx *. float_of_int (Array.length d) /. float_of_int (max 1 total));
  metric r "shard.wait.calls_per_req" "count" (ratio waits reqs);
  metric r "shard.wait.ns_mean" "ns" (ratio away waits);
  metric r "shard.wait.idle_frac" "ratio" (ratio away (domains * wall t))

let layer_explore r ~seed ~budget:_ =
  let u = Dpor.acc () in
  ignore
    (gc_delta r ~workload:"explore" ~ops:(fun () -> u.Dpor.schedules) (fun () ->
         Dpor.pass u ~trace:false ~seed));
  let t = Dpor.acc () in
  Dpor.pass t ~trace:true ~seed;
  let per (a : Dpor.acc) = ratio (a.Dpor.dpor_ns + a.Dpor.pct_ns) a.Dpor.schedules in
  overhead r ~workload:"explore" ~base:(per u) ~traced:(per t);
  List.iter
    (fun (a : Dpor.acc) ->
      count r ~attempted:a.Dpor.attempted ~failed:a.Dpor.failed;
      List.iter (error r) a.Dpor.errors)
    [ u; t ];
  metric r "explore.dpor_schedules_per_s" "1/s" (1e9 *. ratio u.Dpor.dpor_runs u.Dpor.dpor_ns);
  metric r "explore.pct_runs_per_s" "1/s" (1e9 *. ratio Dpor.pct_runs u.Dpor.pct_ns);
  metric r "explore.steps_per_run" "count" (ratio u.Dpor.steps u.Dpor.dpor_runs);
  metric r "explore.ns_per_step" "ns" (ratio u.Dpor.dpor_ns u.Dpor.steps);
  (* the same DPOR set through the parallel frontier; its traversal order
     differs from [run]'s, so its schedule count may too, but it must still
     exhaust every scenario without a failure *)
  let t0 = Clock.now_ns () in
  let par_runs =
    List.fold_left
      (fun n ((s : Check.Scenarios.t), _) ->
        let res = Check.Explore.run_parallel ~domains s.make in
        let st = res.Check.Explore.stats in
        if res.Check.Explore.failure <> None || not st.Check.Explore.complete then
          error r ("explore: parallel DPOR did not exhaust " ^ s.name);
        n + st.Check.Explore.runs)
      0 Dpor.dpor_set
  in
  let par_ns = Clock.now_ns () - t0 in
  (* base: sequential DPOR schedules/s over the same scenarios *)
  metric r "frontier.parallel_speedup" "ratio"
    (ratio par_runs par_ns /. ratio u.Dpor.dpor_runs u.Dpor.dpor_ns);
  (* PCT with the sanitizer off, against the pass's sanitized budget *)
  let off = Dpor.acc () in
  Dpor.pct_one off ~trace:false ~sanitize:false ~seed ();
  count r ~attempted:off.Dpor.attempted ~failed:off.Dpor.failed;
  metric r "sanitize.overhead" "ratio"
    (ratio Dpor.pct_runs off.Dpor.pct_ns /. ratio Dpor.pct_runs u.Dpor.pct_ns)

let workloads = [ "unix_echo"; "unix_open"; "vm_serving"; "sharded_serving"; "explore" ]

(* Every per-layer metric is reported whatever the workload: the named
   workload's layer pass gets 2/5 of the time, each other one 1/10, then
   the ladder runs.  The explore pass is a fixed amount of work. *)
let per_layer r ~workload ~seed ~seconds =
  let total = int_of_float (seconds *. 1e9) in
  List.iter
    (fun w ->
      let budget = if w = workload then total * 2 / 5 else total / 10 in
      match w with
      | "unix_echo" -> layer_unix_echo r ~seed ~budget
      | "unix_open" -> layer_unix_open r ~seed ~budget
      | "vm_serving" -> layer_vm_serving r ~seed ~budget
      | "sharded_serving" -> layer_sharded r ~seed ~budget
      | _ -> layer_explore r ~seed ~budget)
    workloads;
  List.iter (fun (name, unit_, v) -> metric r name unit_ v) (Ladder.rows ~domains)

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec get name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> get name rest
    | [] -> None
  in
  let workload = Option.value (get "--workload" args) ~default:"" in
  let int_arg name default =
    match get name args with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None ->
            Printf.eprintf "%s: not an integer: %s\n" name v;
            exit 2)
  in
  let seed = int_arg "--seed" 1 in
  let seconds = float_of_int (int_arg "--seconds" 10) in
  let trace = int_arg "--trace" 0 <> 0 in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
      (String.concat "|" workloads);
    exit 2
  end;
  let r = report () in
  (try
     if trace then per_layer r ~workload ~seed ~seconds
     else end_to_end r ~workload ~seed ~seconds
   with e ->
     (* a crashed workload is a failed operation, never a silent skip *)
     r.failed <- r.failed + 1;
     r.attempted <- r.attempted + 1;
     error r
       (match e with
       | Pthreads.Types.Process_stopped why ->
           Format.asprintf "process stopped: %a" Pthreads.Types.pp_stop_reason why
       | e -> "exception: " ^ Printexc.to_string e));
  let attempted = max 1 r.attempted in
  let correct = r.failed = 0 && r.errors = [] in
  let metrics_doc =
    Doc.Obj
      (List.rev_map
         (fun (n, u, v) -> (n, Doc.Obj [ ("value", Doc.Float v); ("unit", Doc.Str u) ]))
         r.metrics)
  in
  let full =
    Doc.Obj
      [
        ("workload", Doc.Str workload);
        ("trace", Doc.Bool trace);
        ( "host",
          Doc.Obj
            [
              ("nproc", Doc.Int nproc);
              ("ocaml", Doc.Str Sys.ocaml_version);
              ("commit", Doc.Str (Option.value (get "--commit" args) ~default:"unknown"));
              ( "source_digest",
                Doc.Str (Option.value (get "--source-digest" args) ~default:"unknown") );
              ("seed", Doc.Int seed);
              ("seconds", Doc.Float seconds);
            ] );
        ("params", Doc.Obj (List.rev r.params));
        ("correct", Doc.Bool correct);
        ("attempted", Doc.Int attempted);
        ("failed", Doc.Int r.failed);
        ("failed_frac", Doc.Float (ratio r.failed attempted));
        ("flags", Doc.List (List.rev_map (fun s -> Doc.Str s) r.flags));
        ("errors", Doc.List (List.rev_map (fun s -> Doc.Str s) r.errors));
        ("metrics", metrics_doc);
        ("distributions", Doc.Obj (List.rev r.dists));
      ]
  in
  let text = Doc.to_string full in
  let correct, text =
    match Doc.validate text with
    | Ok () -> (correct, text)
    | Error msg ->
        prerr_endline ("invalid result document: " ^ msg);
        (false, text)
  in
  let dir = ".perfbench-out" in
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
  (try
     let oc =
       open_out
         (Filename.concat dir
            (Printf.sprintf "%s-trace%d.json" workload (if trace then 1 else 0)))
     in
     output_string oc text;
     output_char oc '\n';
     close_out oc
   with Sys_error msg -> prerr_endline ("cannot write result file: " ^ msg));
  List.iter (fun s -> prerr_endline ("flag: " ^ s)) (List.rev r.flags);
  List.iter (fun s -> prerr_endline ("error: " ^ s)) (List.rev r.errors);
  print_endline
    (Doc.to_string
       (Doc.Obj
          [
            ("correct", Doc.Bool correct);
            ("attempted", Doc.Int attempted);
            ("failed", Doc.Int r.failed);
            ("metrics", metrics_doc);
          ]))
